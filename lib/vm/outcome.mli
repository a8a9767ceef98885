(** Raw result of one program execution under either interpreter. *)

type t =
  | Finished of string  (** the program's captured output *)
  | Crashed of Trap.t
  | Hung  (** exceeded its step budget *)

exception Hang_limit
(** Raised internally by the interpreters when the step budget runs out. *)

type stats = {
  outcome : t;
  steps : int;  (** dynamic instructions executed *)
  injected : bool;  (** the planned fault was actually inserted *)
  activated : bool;  (** the corrupted state was subsequently read *)
  fault_note : string;  (** human-readable fault-site description *)
  fault_bit : int;
      (** the bit the fault model drew, in the destination's bit space
          (see {!Fault_model}); -1 if no fault was inserted or the
          model draws no bit *)
  injected_step : int;  (** dynamic step of the injection, -1 if none *)
  fault_site : int;
      (** static id of the injected instruction (IR gid / assembly index),
          -1 if no fault was inserted *)
  first_use : First_use.t;
      (** what the corrupted value flowed into first; always [Unone]
          unless the run tracked uses (see the interpreters'
          [track_use]) *)
}

val pp : Format.formatter -> t -> unit

val equal_kind : t -> t -> bool
(** Same constructor, payloads ignored. *)
