(** Defect repair: re-routing around fabrication faults.

    A blocked channel cell (debris, collapsed membrane, bonding defect)
    kills every transport routed through it.  This module measures how
    repairable a finished design is: given a defective cell, the affected
    tasks are ripped up and re-routed on the remaining grid under the same
    conflict rules (existing healthy tasks keep their paths and
    occupations).

    The single-defect yield — the fraction of channel cells whose failure
    the design survives without touching the schedule — is a standard
    robustness figure for microfluidic layouts.

    A defect that lands on a component footprint is not a channel fault
    but a {e component} fault: the component itself is dead and the
    operations bound to it must move, which is re-binding (see
    [Mfb_repair.Plan]), not re-routing.  [inject] reports this case as a
    structured {!injection} instead of raising. *)

val cells : Mfb_place.Chip.t -> (int * int) list
(** All channel cells of the chip — cells not covered by any component
    footprint — in {e row-major} order: [(0,0), (1,0), …, (w-1,0),
    (0,1), …].  This is the canonical defect-enumeration order shared by
    {!single_defect_yield}, the bench sweeps and the seeded defect
    generators; every consumer iterating channel cells must use it so
    that a "cell index" means the same cell everywhere. *)

val owner : Mfb_place.Chip.t -> int * int -> int option
(** [owner chip cell] is the component whose footprint covers [cell]
    (the lowest such id, though footprints never overlap on a legal
    chip), or [None] for a channel cell. *)

(** {2 The re-route ladder} *)

type rerouted =
  | In_window of Routed.task  (** kept the original postponement *)
  | Delayed of Routed.task    (** needed a bounded extra delay *)
  | Unroutable

val reroute :
  Rgrid.t ->
  tc:float ->
  is_defect:(int * int -> bool) ->
  Routed.kind ->
  Mfb_schedule.Types.transport ->
  delay:float ->
  rerouted
(** [reroute grid ~tc ~is_defect kind transport ~delay] routes one task
    between its {!Routed.endpoints} on the (possibly defect-masked)
    grid: first at its original postponement [delay], then up
    {!Routed.delay_candidates} above [delay], finally along the shortest
    obstacle-avoiding path settled conflict-free
    ({!Routed.settle_delay}), accepted up to a 16 s delay budget so a
    repair cannot degenerate into an arbitrarily late schedule.
    Deterministic; commits the task onto [grid] on success.  This is the
    ladder shared by [Mfb_repair.Plan] (rungs 1-2 of the repair) and
    [Mfb_repair.Warm] (invalidated transports). *)

(** {2 Defect injection} *)

type outcome = {
  defect : int * int;
  affected : int;          (** tasks whose path crossed the defect *)
  repaired : int;          (** of those, re-routed without postponement *)
  survived : bool;         (** all affected tasks repaired *)
}

type injection =
  | Channel of outcome
      (** the defect hit a channel cell; the re-route outcome *)
  | Component_fault of { component : int }
      (** the defect lies on this component's footprint — a component
          fault, to be handled by re-binding, not re-routing *)

val inject :
  we:float ->
  tc:float ->
  Mfb_place.Chip.t ->
  Routed.result ->
  defect:int * int ->
  injection
(** [inject ~we ~tc chip routing ~defect] rebuilds the design with
    [defect] unusable and every healthy task's occupation re-committed,
    then re-routes the affected tasks with the in-window rung of
    {!reroute} (original windows, no extra delay allowed).  A defect on a component footprint returns
    [Component_fault] instead of attempting any re-route. *)

type yield_report = {
  cells_tested : int;     (** channel cells of the design *)
  survived : int;
  yield : float;          (** [survived / cells_tested]; 1.0 for empty *)
  worst : outcome option; (** a failing defect, when any exists *)
}

val single_defect_yield :
  we:float ->
  tc:float ->
  Mfb_place.Chip.t ->
  Routed.result ->
  yield_report
(** Try every used channel cell as the defect, in row-major order (the
    {!cells} order restricted to cells with at least one occupation).
    [worst] is the {e first} failing defect in that order, so the report
    is deterministic and reproducible cell-for-cell. *)
