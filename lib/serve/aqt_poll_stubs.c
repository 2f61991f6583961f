/* poll(2) binding for the serve event loop.

   The OCaml stdlib exposes only select(2), whose fd_set caps file
   descriptors at FD_SETSIZE (1024 on Linux) — too small for a daemon
   holding thousands of keep-alive connections plus a load generator in
   the same process.  poll(2) has no such cap.  The binding is
   deliberately array-shaped: the OCaml side keeps flat int arrays of
   fds/events/revents and the stub copies through a scratch pollfd
   vector, so a wait allocates nothing on the OCaml heap. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>

/* Event bits mirrored on the OCaml side (Evpoll). */
#define AQT_RD 1
#define AQT_WR 2
#define AQT_ERR 4

CAMLprim value aqt_poll(value v_fds, value v_events, value v_revents,
                        value v_n, value v_timeout_ms)
{
  CAMLparam5(v_fds, v_events, v_revents, v_n, v_timeout_ms);
  int n = Int_val(v_n);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd stack_pfds[64];
  struct pollfd *pfds = stack_pfds;
  int i, ret;

  if (n < 0 || n > Wosize_val(v_fds) || n > Wosize_val(v_events)
      || n > Wosize_val(v_revents))
    caml_invalid_argument("Evpoll.wait: inconsistent array sizes");

  if (n > 64) {
    pfds = malloc((size_t)n * sizeof(struct pollfd));
    if (pfds == NULL) caml_raise_out_of_memory();
  }

  for (i = 0; i < n; i++) {
    int ev = Int_val(Field(v_events, i));
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = (short)(((ev & AQT_RD) ? POLLIN : 0)
                             | ((ev & AQT_WR) ? POLLOUT : 0));
    pfds[i].revents = 0;
  }

  caml_release_runtime_system();
  ret = poll(pfds, (nfds_t)n, timeout);
  caml_acquire_runtime_system();

  if (ret < 0) {
    int err = errno;
    if (pfds != stack_pfds) free(pfds);
    if (err == EINTR) CAMLreturn(Val_int(0));
    caml_failwith("Evpoll.wait: poll failed");
  }

  for (i = 0; i < n; i++) {
    short re = pfds[i].revents;
    int out = 0;
    if (re & (POLLIN | POLLHUP)) out |= AQT_RD;
    if (re & POLLOUT) out |= AQT_WR;
    if (re & (POLLERR | POLLNVAL)) out |= AQT_ERR;
    Field(v_revents, i) = Val_int(out);
  }

  if (pfds != stack_pfds) free(pfds);
  CAMLreturn(Val_int(ret));
}
