(** Golden-run reconvergence journals — the "rejoin" fast path.

    A single-bit fault either crashes the program, hangs it, changes
    its output, or — very often — washes out: the corrupted value is
    masked, overwritten, or never consumed, and the trial's machine
    state becomes {e exactly} the golden run's state again.  From that
    instant the two executions are the same deterministic function of
    the same state, so the trial's remaining work is a replay of the
    golden suffix the campaign already ran once.

    The journal makes that observation executable.  A recording golden
    run maintains an incremental Zobrist-style digest of the full
    machine state (registers / SSA slots, memory cells, allocator
    frontier, control position) and stores digest -> (step count,
    output length) in an open-addressed table at every boundary a trial
    may probe: every IR block end, and every x86 boundary whose next
    instruction is a loop head ({!x86_anchors}).  A post-injection
    trial maintains the same digest and periodically probes the table
    at those same points; on a hit it splices the recorded
    golden output suffix onto its own, adds the remaining golden step
    count, and finishes immediately.  Every stats field is provably
    final at the match point (the interpreters guard the ones that are
    not), so the spliced result is byte-identical to running the
    suffix — at a fraction of the cost.

    Soundness notes:
    - The digest covers state that determines future behavior and
      excludes the write-only output buffer and step counter — which is
      exactly what lets an SDC trial (different output so far) still
      rejoin.
    - A true state revisit inside one golden run is impossible (the
      machine is deterministic, so a revisit means nontermination);
      duplicate digests are hash collisions and resolve first-wins.
    - A 63-bit digest can collide across {e different} states with
      probability ~2^-63 per probe.  A false match would produce a
      wrong (spliced) result — visible, not silent: the engine's
      byte-identical-CSV gate compares every campaign against the
      non-rejoin reference. *)

(* SplitMix64-style finalizer on native 63-bit ints (constants
   truncated to fit; multiplication wraps mod 2^63). *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x3C79AC492BA7B653 in
  let z = (z lxor (z lsr 27)) * 0x1C69B3F74AC4AE35 in
  z lxor (z lsr 31)

let h2 a b = mix (a lxor mix b)
let h3 a b c = mix (a lxor mix (b lxor mix c))

(* Check-digest probes are spaced about one period apart: an IR trial
   probes where [visited land ir_period_mask = 0], an x86 trial at the
   first anchor boundary (see [x86_anchors]) at least
   [x86_period_mask + 1] steps after its previous probe.  The golden
   recorder stores every boundary a probe could land on, so any
   alignment matches within one period.  Because
   reconvergence is permanent — identical state implies identical
   future, so once a trial is back on the golden trajectory every
   later probe also matches — a sparse period only delays detection
   by at most one period of boundaries; it never loses a rejoin.  The
   right period balances per-probe cost against detection delay, so
   each interpreter picks its own: the x86 machine digests its whole
   register file per probe (expensive), the IR machine the top frame's
   live slots (boundaries once per block).
   Detection delay is bounded by one period — hundreds of steps
   against trial suffixes of tens of thousands — so wide periods win:
   measured on the benchmark campaign, widening from 63/15 to the
   values below cut probe overhead on never-reconverging (SDC) trials
   from ~20% to ~2% while giving up under 1% of the skipped work. *)
let x86_period_mask = 511
let ir_period_mask = 127

(* Journals are only recorded for golden runs up to this many steps:
   the table costs ~32 bytes per recorded boundary (one per IR block,
   one per x86 loop-head visit), and a workload long enough to blow
   this budget amortizes its trials well anyway. *)
let max_recorded_steps = 4_000_000

(* The x86 record and probe points.  Journaling every x86 boundary
   would make the golden recorder hash the whole register file and
   insert a table entry on every instruction, while trials only ever
   read the points they probe.  So both sides agree on a static subset
   of instruction indices — every resolved jump or call target at the
   same or a lower index than its jump or call, i.e. every loop head
   and every function entered by a backward or recursive call — and
   act only at boundaries whose next instruction is one of them.
   Without a backward jump or call, every frame only moves forward
   through the code and call depth is bounded by the code size, so
   every loop iteration and every recursive call passes an anchor and
   a trial stuck in an infinite loop still reaches probe points.  (A
   corrupted return address can cycle without one; such a trial is
   simply not cut short and runs to its step budget, as without a
   journal.)

   Exactness: membership depends only on [rip], and [rip] is part of
   the digested state, so a trial in the same full state as a golden
   boundary is at an anchor exactly when that boundary is — a trial
   can only probe where the golden run recorded.  Index [length] (one
   past the last instruction, where a fall-through off the end leaves
   [rip]) is never an anchor. *)
let x86_anchors resolved =
  let a = Bytes.make (Array.length resolved + 1) '\000' in
  Array.iteri
    (fun i target -> if target >= 0 && target <= i then Bytes.set a target '\001')
    resolved;
  a

(* (steps, output length) packed into one int so the table is two flat
   int arrays: steps in the high bits, outlen in the low
   [outlen_bits].  Boundaries past the output cap are simply not
   recorded. *)
let outlen_bits = 24
let steps_of v = v lsr outlen_bits
let outlen_of v = v land ((1 lsl outlen_bits) - 1)

type t = {
  keys : int array;  (* open-addressed digest table, load <= 1/2 *)
  vals : int array;  (* packed (steps, outlen); -1 = empty slot *)
  mask : int;
  entries : int;
  total_steps : int;  (* the golden run's final step count *)
  golden_out : string;  (* the golden run's full output *)
}

let entries t = t.entries
let total_steps t = t.total_steps
let golden_out t = t.golden_out

let probe keys vals mask key =
  let i = ref (key land mask) in
  while vals.(!i) >= 0 && keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let lookup t key =
  let i = probe t.keys t.vals t.mask key in
  t.vals.(i)

type builder = {
  mutable b_keys : int array;
  mutable b_vals : int array;
  mutable b_mask : int;
  mutable b_n : int;
}

let builder () =
  let cap = 1 lsl 12 in
  {
    b_keys = Array.make cap 0;
    b_vals = Array.make cap (-1);
    b_mask = cap - 1;
    b_n = 0;
  }

let grow b =
  let cap = 2 * (b.b_mask + 1) in
  let keys = Array.make cap 0 and vals = Array.make cap (-1) in
  let mask = cap - 1 in
  for i = 0 to b.b_mask do
    let v = b.b_vals.(i) in
    if v >= 0 then begin
      let j = probe keys vals mask b.b_keys.(i) in
      keys.(j) <- b.b_keys.(i);
      vals.(j) <- v
    end
  done;
  b.b_keys <- keys;
  b.b_vals <- vals;
  b.b_mask <- mask

let add b ~digest ~steps ~outlen =
  if outlen < 1 lsl outlen_bits then begin
    if 2 * (b.b_n + 1) > b.b_mask + 1 then grow b;
    let i = probe b.b_keys b.b_vals b.b_mask digest in
    if b.b_vals.(i) < 0 then begin
      (* first boundary wins: duplicates are hash collisions (a true
         state revisit would mean the golden run never terminates) *)
      b.b_keys.(i) <- digest;
      b.b_vals.(i) <- (steps lsl outlen_bits) lor outlen;
      b.b_n <- b.b_n + 1
    end
  end

let finish b ~total_steps ~golden_out =
  {
    keys = b.b_keys;
    vals = b.b_vals;
    mask = b.b_mask;
    entries = b.b_n;
    total_steps;
    golden_out;
  }

(* A growable digest set for trial-side self-loop detection: a state
   digest recurring within one trial means the (deterministic) machine
   is in an infinite loop — only the excluded step counter advances —
   so the trial is provably a hang.  Key 0 is the empty-slot sentinel;
   a state digesting to exactly 0 is simply never detected (a missed
   shortcut, not an error). *)
type seen = { mutable s_keys : int array; mutable s_mask : int; mutable s_n : int }

let seen () = { s_keys = Array.make 64 0; s_mask = 63; s_n = 0 }

let seen_probe keys mask key =
  let i = ref (key land mask) in
  while keys.(!i) <> 0 && keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let seen_grow s =
  let cap = 2 * (s.s_mask + 1) in
  let keys = Array.make cap 0 in
  let mask = cap - 1 in
  for i = 0 to s.s_mask do
    let k = s.s_keys.(i) in
    if k <> 0 then keys.(seen_probe keys mask k) <- k
  done;
  s.s_keys <- keys;
  s.s_mask <- mask

let seen_add s key =
  key <> 0
  &&
  begin
    if 2 * (s.s_n + 1) > s.s_mask + 1 then seen_grow s;
    let i = seen_probe s.s_keys s.s_mask key in
    s.s_keys.(i) = key
    ||
    begin
      s.s_keys.(i) <- key;
      s.s_n <- s.s_n + 1;
      false
    end
  end
