/* Pin the calling thread to the lowest (or, with [last], the highest)
   CPU it may run on, so that the benchmark's client threads and the
   server it starts run on different cores. Linux only; elsewhere a
   no-op that reports false. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>

value perfbench_pin_cpu(value last)
{
  cpu_set_t allowed, one;
  int cpu, chosen = -1;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_false;
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) {
      chosen = cpu;
      if (!Bool_val(last)) break;
    }
  }
  if (chosen < 0) return Val_false;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  return Val_bool(sched_setaffinity(0, sizeof one, &one) == 0);
}
#else
value perfbench_pin_cpu(value last)
{
  (void)last;
  return Val_false;
}
#endif
