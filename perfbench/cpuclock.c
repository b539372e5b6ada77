/* CPU time of one thread of this process, read through the thread's
   CPU-time clock.  Linux encodes that clock's id from the thread id
   (the MAKE_THREAD_CPUCLOCK encoding glibc's pthread_getcpuclockid
   uses), so any thread of the process can be read, running or not.
   With paravirtual time accounting the clock leaves out the time the
   hypervisor ran other guests, and it never counts run-queue waits. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

#define CPUCLOCK_PERTHREAD 4
#define CPUCLOCK_SCHED 2

/* Seconds of CPU time of thread [tid], or -1 if there is no such thread
   (it may have exited since it was listed). */
value perfbench_thread_cpu_s(value tid)
{
  clockid_t clock =
      (clockid_t)((~(clockid_t)Long_val(tid) << 3) | CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED);
  struct timespec ts;
  if (clock_gettime(clock, &ts) != 0) return caml_copy_double(-1.);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
