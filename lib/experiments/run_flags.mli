(** One table describing every {!Run_config} command-line knob.

    Each spec names a flag, documents it, and carries the
    {!Run_config} builder it applies — so validation (and its typed
    [Invalid_flag] diagnostics) lives in one place.  The cmdliner front
    end ([bin/main.ml]) builds its terms generically from this table,
    and the bench driver feeds its raw argv through {!parse}; both
    therefore accept the same flags with the same semantics. *)

type kind =
  | Flag of (bool -> Run_config.t -> Run_config.t)
  | Int of (int -> Run_config.t -> Run_config.t)
  | Float of (float -> Run_config.t -> Run_config.t)
  | String of (string -> Run_config.t -> Run_config.t)

type spec = { names : string list; docv : string; doc : string; kind : kind }

val pipeline_specs : spec list
(** [--seed], [--jobs]/[-j], [--pool], [--target-coverage],
    [--faultsim-kernel]. *)

val engine_specs : spec list
(** [--order], [--backtracks], [--retries], budgets,
    checkpoint/resume. *)

val observability_specs : spec list
(** [--metrics], [--trace FILE]. *)

val atpg_specs : spec list
(** Everything — the [adi-atpg atpg] flag set. *)

val all : spec list

val with_order_name : string -> Run_config.t -> Run_config.t
(** Apply [--order]'s string form.  @raise Util.Diagnostics.Failed
    (code [Invalid_flag]) on an unknown order name. *)

val with_kernel_name : string -> Run_config.t -> Run_config.t
(** Apply [--faultsim-kernel]'s string form ([event] or [stem]).
    @raise Util.Diagnostics.Failed (code [Invalid_flag]) on an
    unknown kernel name. *)

val parse :
  ?specs:spec list -> init:Run_config.t -> string list -> Run_config.t * string list
(** Fold argv-style tokens over [init]: [--name value], bare
    [--flag], and [-n value] for single-letter names.  Unrecognised
    tokens are returned, in order, for the caller's own parsing.
    @raise Util.Diagnostics.Failed (code [Invalid_flag]) on a
    malformed or out-of-range value. *)
