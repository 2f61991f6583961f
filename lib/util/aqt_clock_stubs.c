/* CLOCK_MONOTONIC for Clock.monotonic.

   Monotonic time in seconds as a float: immune to wall-clock steps, so
   durations, deadlines, latency math and token-bucket refill are too.
   Falls back to CLOCK_REALTIME only if CLOCK_MONOTONIC is somehow
   unavailable. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

#include <time.h>

CAMLprim value aqt_monotonic_time(value v_unit)
{
  CAMLparam1(v_unit);
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
    (void)clock_gettime(CLOCK_REALTIME, &ts);
  CAMLreturn(caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9));
}
