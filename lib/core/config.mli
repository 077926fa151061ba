(** Synthesis-flow parameters.  Defaults are the paper's §V settings:
    alpha = 0.9, beta = 0.6, gamma = 0.4, T0 = 10000, I_max = 150,
    T_min = 1.0, t_c = 2.0, w_e = 10. *)

type t = {
  tc : float;     (** transport-time constant between components (s) *)
  we : float;     (** initial routing-cell weight *)
  beta : float;   (** concurrency weight in Eq. 4 *)
  gamma : float;  (** wash-time weight in Eq. 4 *)
  sa : Mfb_place.Annealer.params;  (** annealing schedule *)
  sa_restarts : int;
      (** independent annealing restarts per placement (default 1); the
          best energy wins deterministically regardless of how many
          domains execute them *)
  seed : int;     (** RNG seed for the annealer *)
  backend : Mfb_schedule.Portfolio.backend;
      (** scheduling backend: the DCSA heuristic (default), the exact
          branch-and-bound oracle, or the portfolio racing both *)
  exact_fuel : int;
      (** virtual-tick budget (expanded nodes) of the exact backend *)
}

val default : t

val max_tc : float
(** Largest accepted [tc] (s): {!Mfb_bioassay.Fluid.max_time}, the same
    ceiling as operation durations and wash overrides, low enough that
    schedule sums over any assay stay finite. *)

val max_sa_restarts : int
(** Largest accepted [sa_restarts], so one request cannot ask for
    unbounded annealing work. *)

val max_exact_fuel : int
(** Largest accepted [exact_fuel]. *)

val validate : t -> unit
(** Rejects non-finite [tc], [we], [beta] or [gamma], [tc] outside
    (0, {!max_tc}], negative [we], [beta] or [gamma], and [sa_restarts]
    or [exact_fuel] outside [1 .. max].
    @raise Invalid_argument when a parameter is out of range. *)

val to_json : t -> Mfb_util.Json.t
(** Stable field-by-field rendering (annealing schedule nested under
    ["sa"]) — echoed by the serve protocol's [stats] reply so clients
    can see the exact parameter set behind cached results. *)
