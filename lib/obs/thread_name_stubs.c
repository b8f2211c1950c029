/* Name the calling thread, so /proc/PID/task/TID/comm says which stage a
   thread runs. Linux keeps 15 bytes of the name; elsewhere this does
   nothing. */

#include <caml/mlvalues.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

value ivl_obs_set_thread_name(value name)
{
#ifdef __linux__
  prctl(PR_SET_NAME, String_val(name), 0, 0, 0);
#else
  (void)name;
#endif
  return Val_unit;
}
