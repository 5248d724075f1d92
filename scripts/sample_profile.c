/* A SIGPROF sampler for scripts/sample_profile.sh, loaded with LD_PRELOAD.
 *
 * Every millisecond of process CPU time the kernel interrupts the program
 * and the handler stores the interrupted program counter and, when the
 * program was interrupted on the main thread, the return addresses of the
 * frame-pointer (RBP) chain above it: at most MAX_DEPTH of them, read only
 * between the interrupted stack pointer and the top of the main thread's
 * stack mapping, each frame strictly above the last (so the walk stops at
 * a register that is not a frame pointer, e.g. inside code built without
 * them). At exit the samples are written to $SAMPLE_OUT, one a line: the
 * PC, then each caller's return address minus one (inside its call
 * instruction), outermost last. An address inside the executable (the
 * file of the first mapping in /proc/self/maps) is written in hex minus
 * that mapping's load base, which is the address addr2line expects for a
 * position-independent executable. Any other address is written as the
 * name of the mapping it lies in, bracketed: the file's base name for a
 * shared object ("[libc.so.6]"), the kernel's own label for a named region
 * ("[vdso]"), "[anon]" for an anonymous one and "[?]" for none. x86-64
 * Linux only (REG_RIP, REG_RSP, REG_RBP). */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
#define MAX_DEPTH 96
/* Untouched pages of these arrays cost no memory. */
#define MAX_ADDRS (1 << 23)
static unsigned long addrs[MAX_ADDRS];
static unsigned char depths[MAX_SAMPLES];
static volatile unsigned long taken, used;
/* The main thread's stack: its top, and how far below it a stack pointer
 * may lie (RLIMIT_STACK). A sample with its stack pointer elsewhere comes
 * from another thread and is stored without callers. */
static unsigned long stack_hi, stack_span;

static void on_prof(int sig, siginfo_t *info, void *ucv) {
    (void)sig;
    (void)info;
    const greg_t *g = ((ucontext_t *)ucv)->uc_mcontext.gregs;
    if (taken >= MAX_SAMPLES || used + 1 + MAX_DEPTH > MAX_ADDRS)
        return;
    unsigned long *out = addrs + used;
    unsigned long n = 0, sp = g[REG_RSP], fp = g[REG_RBP];
    out[n++] = g[REG_RIP];
    if (sp < stack_hi && stack_hi - sp <= stack_span) {
        /* Everything in [sp, stack_hi) is mapped: the stack is one mapping. */
        while (n <= MAX_DEPTH && fp >= sp && fp % 8 == 0 && fp + 16 <= stack_hi) {
            const unsigned long *frame = (const unsigned long *)fp;
            out[n++] = frame[1] - 1;
            sp = fp + 16;
            fp = frame[0];
        }
    }
    depths[taken++] = (unsigned char)n;
    used += n;
}

/* Reads the top of the main thread's stack from /proc/self/maps. */
static void find_stack(void) {
    FILE *f = fopen("/proc/self/maps", "r");
    if (!f)
        return;
    char line[4096];
    unsigned long lo, hi;
    while (fgets(line, sizeof line, f))
        if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2)
            stack_hi = hi;
    fclose(f);
    struct rlimit lim;
    stack_span = getrlimit(RLIMIT_STACK, &lim) == 0 && lim.rlim_cur < (1ul << 30)
                     ? lim.rlim_cur
                     : 1ul << 30;
}

__attribute__((constructor)) static void start(void) {
    /* Children (rustc -V, git) must not load the sampler too. */
    unsetenv("LD_PRELOAD");
    find_stack();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

#define MAX_MAPS 4096
static struct {
    unsigned long lo, hi;
    char name[64];
} maps[MAX_MAPS];

/* Reads /proc/self/maps into `maps`; returns the count. */
static int read_maps(char *exe, size_t exe_len) {
    FILE *f = fopen("/proc/self/maps", "r");
    if (!f)
        return 0;
    char line[4096];
    int n = 0;
    while (n < MAX_MAPS && fgets(line, sizeof line, f)) {
        int path = 0;
        if (sscanf(line, "%lx-%lx %*s %*s %*s %*s %n", &maps[n].lo, &maps[n].hi, &path) < 2)
            continue;
        char *name = line + path;
        name[strcspn(name, "\n")] = 0;
        if (n == 0)
            snprintf(exe, exe_len, "%s", name);
        const char *base = strrchr(name, '/');
        if (strcmp(name, exe) == 0)
            maps[n].name[0] = 0; /* the executable: symbolized by address */
        else if (base)
            snprintf(maps[n].name, sizeof maps[n].name, "[%s]", base + 1);
        else
            snprintf(maps[n].name, sizeof maps[n].name, "%s", *name ? name : "[anon]");
        n++;
    }
    fclose(f);
    return n;
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLE_OUT");
    static char exe[4096];
    int n = read_maps(exe, sizeof exe);
    FILE *out = n > 0 && path ? fopen(path, "w") : NULL;
    if (!out)
        return;
    const unsigned long *a = addrs;
    for (unsigned long i = 0; i < taken; i++) {
        for (unsigned d = 0; d < depths[i]; d++, a++) {
            int m = 0;
            while (m < n && !(maps[m].lo <= *a && *a < maps[m].hi))
                m++;
            fputs(d ? " " : "", out);
            if (m == n)
                fputs("[?]", out);
            else if (maps[m].name[0])
                fputs(maps[m].name, out);
            else
                fprintf(out, "%lx", *a - maps[0].lo);
        }
        fputc('\n', out);
    }
    fclose(out);
}
