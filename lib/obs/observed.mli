(** The installed-observer word: one bit per observer ({!Trace},
    {!Metrics}, {!Timeline}, {!Hb}, {!Span}, {!Flight}, {!Ledger}) with a
    live value in its install cell.  Every [with_*] scope goes through
    {!install}; each [X.enabled ()] is [Atomic.get word land X <> 0], and
    a hot site asks whether anyone is watching with
    [Atomic.get Observed.word <> 0].  Sites read the word in place: a
    function of this module would be a call under the dev profile's
    [-opaque].

    A bit errs only towards "set": it is set before a live value enters
    its cell and cleared only after a dead one is back.  The code behind
    each bit tolerates the dead value ({!Sink.null} has capacity 0,
    {!Metrics.null} is inert, the option cells are matched). *)

val word : int Atomic.t

val epoch : int Atomic.t
(** Bumped after every install and restore, once the cell holds its new
    value: handles checked against a cell at epoch [e] are current while
    the epoch reads [e], which a hot site tests with one load. *)

val trace : int
val metrics : int
val timeline : int
val hb : int
val span : int
val flight : int
val ledger : int

val install : 'a Atomic.t -> int -> live:('a -> bool) -> 'a -> (unit -> 'b) -> 'b
(** [install cell bit ~live v f] runs [f] with [v] in [cell] and [bit]
    set iff [live v], then restores both, also on exception, so scopes
    nest. *)
