(* The fault-model axis: what corruption a planned injection applies at
   its target destination.  The paper's original experiments use
   [Bitflip] only; the other constructors extend the campaign space to
   the hardware fault classes surveyed by InjectV/CHAOS (PAPERS.md):
   multi-bit upsets, stuck-at-0/1, instruction skip and corrupted
   destination values.

   The type lives in lib/vm (not lib/core) because both execution
   tiers call [corrupt] inside their injection hot paths; lib/core
   re-exports it as [Core.Fault_model]. *)

open Support

type t =
  | Bitflip  (* flip one uniformly drawn destination bit (the paper) *)
  | Multi_bit of int  (* n successive uniform bit flips, with replacement *)
  | Stuck_at_0  (* clear one uniformly drawn destination bit *)
  | Stuck_at_1  (* set one uniformly drawn destination bit *)
  | Skip  (* suppress the destination write entirely *)
  | Load_value  (* replace the destination with a uniform random value *)

let name = function
  | Bitflip -> "bitflip"
  | Multi_bit n -> Printf.sprintf "multi_bit:%d" n
  | Stuck_at_0 -> "stuck_at_0"
  | Stuck_at_1 -> "stuck_at_1"
  | Skip -> "skip"
  | Load_value -> "load_value"

let of_name s =
  match s with
  | "bitflip" -> Some Bitflip
  | "stuck_at_0" -> Some Stuck_at_0
  | "stuck_at_1" -> Some Stuck_at_1
  | "skip" -> Some Skip
  | "load_value" -> Some Load_value
  | _ ->
    let pfx = "multi_bit:" in
    let pl = String.length pfx in
    if String.length s > pl && String.sub s 0 pl = pfx then
      match int_of_string_opt (String.sub s pl (String.length s - pl)) with
      | Some n when n >= 1 && n <= 64 -> Some (Multi_bit n)
      | _ -> None
    else None

(* The canonical campaign sweep: one representative per constructor
   (multi-bit at n=2, the double-upset case InjectV measures). *)
let all = [ Bitflip; Multi_bit 2; Stuck_at_0; Stuck_at_1; Skip; Load_value ]

let equal (a : t) (b : t) = a = b

(* --- corruption --- *)

type space = Value of int | Candidates of int

let width = function Value w | Candidates w -> w

type edit =
  | Flip of int * int list
  | Force of int * bool
  | Keep
  | Replace of int64

(* One uniform value of the space.  The per-width extraction keeps each
   destination kind's historical stream (and so every pinned result). *)
let draw_value space rng =
  match space with
  | Candidates n -> Int64.of_int (Rng.int rng (1 lsl n))
  | Value w ->
    let x = Rng.next_int64 rng in
    if w >= 64 then x
    else if w >= Word.width then Int64.shift_right_logical x 1
    else Int64.logand x (Bits.mask_width w)

let corrupt model space rng ~forced_bit =
  let w = width space in
  let bit () = if forced_bit >= 0 then forced_bit else Rng.int rng w in
  match model with
  | Bitflip -> Flip (bit (), [])
  | Multi_bit n ->
    let first = bit () in
    let rec more k =
      if k = 0 then []
      else
        let b = Rng.int rng w in
        b :: more (k - 1)
    in
    Flip (first, more (n - 1))
  | Stuck_at_0 -> Force (bit (), false)
  | Stuck_at_1 -> Force (bit (), true)
  | Skip -> Keep
  | Load_value -> Replace (draw_value space rng)

let drawn_bit = function Flip (b, _) | Force (b, _) -> b | Keep | Replace _ -> -1

let flip bits b = if b < 64 then Bits.flip_int64 bits b else bits

let apply edit ~prior bits =
  match edit with
  | Flip (b, more) -> List.fold_left flip (flip bits b) more
  | Force (b, v) -> if b < 64 then Bits.set_int64 bits b v else bits
  | Keep -> prior
  | Replace v -> v

let reaches_value = function
  | Flip (b, more) -> b < 64 || List.exists (fun b -> b < 64) more
  | Force (b, _) -> b < 64
  | Keep | Replace _ -> true

let int_bits w v =
  if w >= Word.width then Int64.logand (Int64.of_int v) (Bits.mask_width Word.width)
  else Int64.of_int (Word.to_unsigned w v)

let int_of_bits w bits = Word.canon w (Int64.to_int bits)

let tail = function
  | Multi_bit n -> Printf.sprintf " (+%d more)" (n - 1)
  | Stuck_at_0 -> " stuck at 0"
  | Stuck_at_1 -> " stuck at 1"
  | Bitflip | Skip | Load_value -> ""

let note model edit dest =
  match edit with
  | Flip (b, _) | Force (b, _) ->
    Printf.sprintf "bit %d of %s%s" b dest (tail model)
  | Keep -> Printf.sprintf "write of %s skipped" dest
  | Replace _ -> Printf.sprintf "value of %s randomized" dest

(* --- facts for planners --- *)

let needs_prior = function
  | Skip -> true
  | Bitflip | Multi_bit _ | Stuck_at_0 | Stuck_at_1 | Load_value -> false

(* [Multi_bit] spans width^n bit tuples and [Load_value] the whole value
   range: neither has a per-instance space an exact campaign can
   cover. *)
let enumerable = function
  | Bitflip | Stuck_at_0 | Stuck_at_1 | Skip -> true
  | Multi_bit _ | Load_value -> false

let space_size model ~width =
  match model with
  | Bitflip | Multi_bit _ | Stuck_at_0 | Stuck_at_1 -> width
  | Skip | Load_value -> 1

type change = Unchanged | Flips_bit | Opaque

let golden_change model ~gold ~bit =
  match model with
  | Bitflip -> Flips_bit
  | (Stuck_at_0 | Stuck_at_1) when bit < 64 ->
    (* forcing a bit to its golden value writes the golden value;
       forcing it against it is exactly a flip of that bit *)
    if Bits.test_int64 gold bit = (model = Stuck_at_1) then Unchanged
    else Flips_bit
  | Stuck_at_0 | Stuck_at_1 | Multi_bit _ | Skip | Load_value -> Opaque
