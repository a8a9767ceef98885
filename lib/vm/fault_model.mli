(** The fault-model axis: which corruption an injection applies at its
    planned destination.  [Bitflip] is the paper's original model; the
    rest extend campaigns to multi-bit upsets, stuck-at faults,
    instruction skip and corrupted load/destination values.  Re-exported
    as [Core.Fault_model].

    This module is the one definition of every model's semantics.  Both
    injectors (LLFI's {!Ir_exec} and PINFI's {!X86_exec}), the exact
    campaigns of [Exhaust] and the coverage report of [Fuzz.Coverage]
    ask it; none of them matches on a model.

    {2 The corruption contract}

    At the targeted dynamic instance the injector names the
    destination's {!space} and calls {!corrupt} once.  The draws come
    from the trial's stream, after the target draw:

    - the first draw is the {e bit}: uniform over the space's width
      ([Rng.int rng width]).  A [forced_bit >= 0] (exhaustive replay)
      replaces exactly this draw and nothing else;
    - [Multi_bit n] then makes [n - 1] further uniform bit draws, with
      replacement (a bit drawn twice flips back);
    - [Stuck_at_0]/[Stuck_at_1] force the drawn bit to 0/1;
    - [Skip] draws nothing: the destination keeps its pre-write value;
    - [Load_value] draws nothing but one value, uniform over the
      space (see {!space} for exactly which draw).

    {2 Bit spaces}

    - an IR integer: its declared width (pointers: [Word.width]);
    - an IR [f64]: 64, the IEEE encoding;
    - a PINFI general-purpose register: [Word.width];
    - a PINFI XMM register: 64 under the paper policy, else 128 (bits
      64–127 are the upper half, which scalar code never reads: an edit
      there leaves the value unchanged);
    - PINFI flags: the candidate flag bits of the compare, indexed by
      their position in the candidate list.

    A destination's {e bits} are its value as a pattern in that space
    (unsigned low bits for integers, the encoding for floats, candidate
    [i]'s flag at bit [i] for flags).  The enumeration pre-pass records
    the golden bits ({!Fault_space.instance}); injection edits the
    current bits with {!apply}. *)

type t =
  | Bitflip  (** flip one uniformly drawn destination bit (the paper) *)
  | Multi_bit of int  (** n successive uniform bit flips, with replacement *)
  | Stuck_at_0  (** clear one uniformly drawn destination bit *)
  | Stuck_at_1  (** set one uniformly drawn destination bit *)
  | Skip  (** suppress the destination write entirely *)
  | Load_value  (** replace the destination with a uniform random value *)

val name : t -> string
(** Stable textual name: ["bitflip"], ["multi_bit:<n>"],
    ["stuck_at_0"], ["stuck_at_1"], ["skip"], ["load_value"].  Used in
    CSV columns, cell keying, CLI flags and the serve wire protocol. *)

val of_name : string -> t option
(** Inverse of {!name}; [Multi_bit n] accepts 1 ≤ n ≤ 64. *)

val all : t list
(** The canonical sweep: one representative per constructor, with
    [Multi_bit 2] for the multi-bit class. *)

val equal : t -> t -> bool

(** {1 Corruption} *)

type space =
  | Value of int
      (** a value of this many bits.  [Load_value] takes one 64-bit
          draw: all of it at width ≥ 64, its top 63 bits at
          [Word.width], its low [w] bits below that *)
  | Candidates of int
      (** [n] candidate flag bits.  [Load_value] draws
          [Rng.int rng (1 lsl n)] *)

val width : space -> int
(** The bit draw's range. *)

type edit =
  | Flip of int * int list  (** flip the drawn bit, then these *)
  | Force of int * bool  (** set the drawn bit to this value *)
  | Keep  (** the write is suppressed: the pre-write value stays *)
  | Replace of int64  (** new bits, uniform over the space *)

val corrupt : t -> space -> Support.Rng.t -> forced_bit:int -> edit
(** The fault a model applies to a destination with this space, making
    exactly the draws the contract above lists, in that order. *)

val drawn_bit : edit -> int
(** The drawn (or forced) bit; -1 for [Keep] and [Replace]. *)

val apply : edit -> prior:int64 -> int64 -> int64
(** [apply edit ~prior bits] edits a destination's bits; [prior] is
    its pre-write bits, which [Keep] restores.  Bits from 64 up are
    outside the value and change nothing. *)

val reaches_value : edit -> bool
(** False when every bit the edit touches is 64 or above (an XMM upper
    half): the value is unchanged and the fault can never activate. *)

val int_bits : int -> int -> int64
(** [int_bits w v]: the bits of a [w]-bit integer value (its unsigned
    low [w] bits). *)

val int_of_bits : int -> int64 -> int
(** Inverse of {!int_bits}: the canonical [w]-bit value. *)

val note : t -> edit -> string -> string
(** [note model edit dest]: the human-readable fault note for a
    destination described as [dest]: ["bit B of DEST"] plus {!tail},
    ["write of DEST skipped"] or ["value of DEST randomized"]. *)

val tail : t -> string
(** What a bit note appends for the model: [""], [" (+k more)"] or
    [" stuck at b"]. *)

(** {1 Facts for planners} *)

val needs_prior : t -> bool
(** Whether injection needs the destination's pre-write value, captured
    before the targeted instruction runs ([Skip]). *)

val enumerable : t -> bool
(** Whether a model has a finite per-instance space an exact campaign
    can cover: every fault is named by its drawn bit ([Bitflip],
    stuck-at) or there is one fault per instance ([Skip]). *)

val space_size : t -> width:int -> int
(** Faults per instance as named by the drawn bit: [width] for the
    bit-drawing models, 1 for [Skip] and [Load_value].  Exact for the
    {!enumerable} models. *)

type change =
  | Unchanged  (** the destination keeps its golden bits *)
  | Flips_bit  (** exactly the drawn bit of the golden bits inverts *)
  | Opaque  (** anything else *)

val golden_change : t -> gold:int64 -> bit:int -> change
(** What the fault with drawn bit [bit] does to a destination whose
    fault-free bits are [gold] — the fact exhaustive pruning rests on.
    Agrees with {!apply} of {!corrupt}'s edit. *)
