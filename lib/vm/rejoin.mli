(** Golden-run reconvergence journals — the "rejoin" fast path.

    Most injected faults wash out: the corrupted value is masked,
    overwritten, or never consumed, and the trial's full machine state
    reconverges to the golden run's.  A journal maps an incremental
    digest of the golden run's state at each boundary a trial may probe
    — every IR block end, every x86 boundary at a loop head
    ({!x86_anchors}) — to (step count, output length); a trial that
    maintains the same
    digest and finds itself in the table finishes immediately by
    splicing the recorded golden output suffix and step count —
    byte-identical to running the suffix, at a fraction of the cost.

    Digest maintenance and the match/splice guards live in the
    interpreters ({!Ir_exec}, {!X86_exec}); this module owns the hash
    primitives and the table.  See rejoin.ml for the soundness
    argument (determinism makes true golden-state revisits impossible;
    a 2^-63 digest collision would be caught by the engine's
    byte-identical-CSV gate, not silent). *)

val mix : int -> int
(** SplitMix64-style finalizer on native ints (a bijection). *)

val h2 : int -> int -> int
val h3 : int -> int -> int -> int
(** Hash-combine 2 or 3 ints; bijective in each argument. *)

val x86_period_mask : int
val ir_period_mask : int
(** Probe spacing.  An IR trial probes at visited block-end boundaries
    where [visited land ir_period_mask = 0]; an x86 trial at the first
    anchor boundary ({!x86_anchors}) at least [x86_period_mask + 1]
    steps after its previous probe.  The recorder stores every boundary
    a probe can land on, so any alignment matches within one period.
    Separate masks because the two interpreters' probe costs and
    boundary densities differ. *)

val max_recorded_steps : int
(** Journals are only recorded for golden runs up to this many steps
    (the table costs ~32 bytes per recorded boundary). *)

val x86_anchors : int array -> Bytes.t
(** The x86 record and probe points, from a program's resolved branch
    and call targets ([Backend.Program.resolved]: a target index per
    instruction, or [-1]).  Byte [k] is nonzero iff [k] is the target
    of a jump or call at index [>= k] — a loop head or a function
    entered by a backward call, so every cycle of control flow passes
    one.  The result has one byte more than there are instructions
    (index [length], where a fall-through off the end leaves [rip], is
    never an anchor).  Anchor membership depends only on [rip], which
    the x86 digest covers, so a trial matching a golden state probes
    exactly where the golden run recorded. *)

type t
(** A finished journal: digest -> packed (steps, outlen), plus the
    golden output and total step count. *)

val lookup : t -> int -> int
(** Packed value for a digest, or [-1] if absent. *)

val steps_of : int -> int
val outlen_of : int -> int
(** Unpack a non-negative {!lookup} result. *)

val entries : t -> int
val total_steps : t -> int
val golden_out : t -> string

type seen
(** A growable digest set for trial-side self-loop detection: a state
    digest recurring within one trial proves the deterministic machine
    is in an infinite loop (only the excluded step counter advances),
    i.e. the trial hangs. *)

val seen : unit -> seen

val seen_add : seen -> int -> bool
(** Add a digest; [true] if it was already present (a repeat).  Digest
    0 doubles as the empty-slot sentinel and is never tracked. *)

type builder

val builder : unit -> builder

val add : builder -> digest:int -> steps:int -> outlen:int -> unit
(** Record one boundary; first boundary wins on digest duplicates, and
    boundaries whose output length exceeds the packing width are
    skipped (trials then simply cannot match there). *)

val finish : builder -> total_steps:int -> golden_out:string -> t
