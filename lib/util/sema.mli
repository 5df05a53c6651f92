(** Counting semaphores built on [Mutex] and [Condition].

    The paper's exchange operator uses semaphores to signal packet arrival,
    to implement flow control ("back pressure"), and to sequence the
    orderly shutdown of producer process groups.  This engine's exchange
    does none of that with semaphores: port lanes are SPSC rings, and every
    wait parks a waker through [Sched.suspend].  The module remains a plain
    blocking counter for tests and tools that want one; it must not be
    acquired from a pool fiber, which it would block with its worker. *)

type t

val create : int -> t
(** [create n] is a semaphore with initial value [n].  [n] must be [>= 0]. *)

val acquire : t -> unit
(** [acquire s] blocks until the value of [s] is positive, then decrements. *)

val try_acquire : t -> bool
(** [try_acquire s] decrements and returns [true] if the value is positive,
    otherwise returns [false] without blocking. *)

val release : t -> unit
(** [release s] increments the value of [s] and wakes one waiter. *)

val release_n : t -> int -> unit
(** [release_n s n] increments the value of [s] by [n] and wakes waiters. *)

val value : t -> int
(** [value s] is the current value (for tests and instrumentation only; the
    value may change concurrently). *)

val waiters : t -> int
(** Number of acquirers currently blocked in {!acquire} — exact waiter
    accounting, so a teardown path can release precisely what is needed
    instead of flooding the count with a magic surplus. *)
