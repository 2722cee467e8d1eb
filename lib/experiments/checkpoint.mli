(** Versioned on-disk ATPG checkpoints.

    A checkpoint is a header line ["ADI-ATPG-CKPT v<n>"] followed by a
    [Marshal]-encoded {!t}.  The payload is plain data (no closures, no
    circuit graphs), so marshalling is safe across runs of the same
    binary; the header guards against feeding it to an incompatible
    reader.  Saves go through {!Util.Atomic_file.write} (tmp-write,
    fsync, rename, directory fsync), so neither an interrupted save nor
    a crash right after the rename can leave a truncated checkpoint.

    Identity of the interrupted run is captured alongside the engine
    {!Engine.snapshot}: circuit digest, seed, ordering and search
    limits.  {!matches} checks a loaded checkpoint against the
    parameters of the resuming run, because resuming under different
    parameters would silently produce a test set neither run would have
    generated. *)

type t = {
  circuit_title : string;
  circuit_digest : string;  (** hex digest of the circuit's .bench text *)
  seed : int;
  order_kind : string;  (** {!Ordering.to_string} of the fault ordering *)
  backtrack_limit : int;
  retries : int;
  order : int array;  (** the exact fault permutation in use *)
  snapshot : Engine.snapshot;
}

val version : int

val digest_of_circuit : Circuit.t -> string

val save : string -> t -> unit
(** Atomically write a checkpoint to the given path. *)

val load : string -> t
(** @raise Util.Diagnostics.Failed with code [Checkpoint_format] on a
    bad header, wrong version or corrupt payload, and [Io_error] when
    the file cannot be opened. *)

val matches :
  t ->
  circuit:Circuit.t ->
  seed:int ->
  order_kind:string ->
  backtrack_limit:int ->
  retries:int ->
  order:int array ->
  (unit, string) result
(** [Error reason] when the checkpoint was taken under different
    parameters than the resuming run. *)
