type instance = {
  width : int;
  reads : int;
  live_mask : int;
  live_full : bool;
  keys : int array;
  gold_key : int;
  gold_bits : int64;
}

let bit_live inst bit =
  inst.live_full || (bit < Support.Word.width && inst.live_mask land (1 lsl bit) <> 0)

type builder = {
  b_width : int;
  mutable b_reads : int;
  mutable b_mask : int;
  mutable b_full : bool;
  mutable b_keys : int array;
  mutable b_gold : int;
  b_gold_bits : int64;
}

let create ~gold ~width =
  {
    b_width = width;
    b_reads = 0;
    b_mask = 0;
    b_full = false;
    b_keys = [||];
    b_gold = 0;
    b_gold_bits = gold;
  }

let read_full b =
  b.b_reads <- b.b_reads + 1;
  b.b_full <- true;
  b.b_keys <- [||]

let read_bits b ~mask =
  b.b_reads <- b.b_reads + 1;
  b.b_mask <- b.b_mask lor mask;
  b.b_keys <- [||]

let read_masked b ~low =
  b.b_reads <- b.b_reads + 1;
  if low >= Support.Word.width || low >= b.b_width then b.b_full <- true
  else b.b_mask <- b.b_mask lor ((1 lsl low) - 1);
  b.b_keys <- [||]

let read_funnel b ~keys ~gold_key =
  (* The funnel is only usable when this is the value's sole read and
     the keys span the whole bit space; a second read of any kind
     discards it.  Every bit is conservatively live: the funnel
     refinement, not the mask, prunes within it. *)
  if b.b_reads = 0 && Array.length keys >= b.b_width then begin
    b.b_keys <- keys;
    b.b_gold <- gold_key
  end
  else b.b_keys <- [||];
  b.b_reads <- b.b_reads + 1;
  b.b_full <- true

let freeze b =
  {
    width = b.b_width;
    reads = b.b_reads;
    live_mask = b.b_mask;
    live_full = b.b_full;
    keys = b.b_keys;
    gold_key = b.b_gold;
    gold_bits = b.b_gold_bits;
  }

let finish rev_builders =
  let arr = Array.of_list (List.rev_map freeze rev_builders) in
  arr
