/* A SIGPROF sampler for scripts/sample_profile.sh, loaded with LD_PRELOAD.
 *
 * Every millisecond of process CPU time the kernel interrupts the program
 * and the handler stores the interrupted program counter. At exit the PCs
 * are written to $SAMPLE_OUT, one hex address a line, minus the load base
 * of the executable (the first mapping in /proc/self/maps), which is the
 * address addr2line expects for a position-independent executable. x86-64
 * Linux only (REG_RIP). */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES];
static volatile unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig;
    (void)info;
    if (taken < MAX_SAMPLES)
        pcs[taken++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    /* Children (rustc -V, git) must not load the sampler too. */
    unsetenv("LD_PRELOAD");
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLE_OUT");
    FILE *maps = fopen("/proc/self/maps", "r");
    unsigned long base = 0;
    int found = maps && fscanf(maps, "%lx", &base) == 1;
    if (maps)
        fclose(maps);
    FILE *out = found && path ? fopen(path, "w") : NULL;
    if (!out)
        return;
    for (unsigned long i = 0; i < taken; i++)
        fprintf(out, "%lx\n", pcs[i] - base);
    fclose(out);
}
