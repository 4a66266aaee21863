// SIGPROF sampling profiler, loaded into any binary with LD_PRELOAD.
//
//   LD_PRELOAD=libtrkx_sigprof.so SIGPROF_OUT=prof.%p.txt ./some_binary ...
//   python3 scripts/profile/resolve.py prof.<pid>.txt
//
// On load it arms ITIMER_PROF, which counts the CPU time of every thread
// of the process; each expiry sends SIGPROF to the running thread, whose
// handler records that thread's id and call stack (backtrace(), innermost
// frame first) into a preallocated buffer. At exit it writes the samples
// and the executable mappings that resolve.py needs to name each frame.
// It asks for 1 ms, but the kernel delivers the timer on its scheduler
// tick, so samples come at most once per tick (4 ms at HZ = 250).
//
//   SIGPROF_OUT   output path; %p becomes the pid (default sigprof.%p.txt)

#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

constexpr int kMaxFrames = 48;
constexpr std::size_t kMaxSamples = 1 << 16;  // ~4.4 min of one busy CPU

struct Sample {
  int tid;
  int depth;
  void* pc[kMaxFrames];
};

Sample* g_samples = nullptr;  // mmap'd: untouched slots cost no memory
std::atomic<std::size_t> g_next{0};
std::atomic<bool> g_on{false};
constexpr long kIntervalUs = 1000;

void on_sigprof(int, siginfo_t*, void*) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  const int saved = errno;
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    Sample& s = g_samples[i];
    s.tid = static_cast<int>(syscall(SYS_gettid));
    s.depth = backtrace(s.pc, kMaxFrames);
  }
  errno = saved;
}

std::string out_path() {
  const char* env = std::getenv("SIGPROF_OUT");
  std::string pattern = env != nullptr && *env != '\0' ? env : "sigprof.%p.txt";
  const std::string pid = std::to_string(getpid());
  for (std::size_t at; (at = pattern.find("%p")) != std::string::npos;)
    pattern.replace(at, 2, pid);
  return pattern;
}

__attribute__((constructor)) void start() {
  void* mem = mmap(nullptr, kMaxSamples * sizeof(Sample),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(mem);
  // backtrace() loads libgcc's unwinder on first use, which must not
  // happen inside the signal handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  g_on.store(true);
  itimerval t{};
  t.it_interval.tv_usec = kIntervalUs;
  t.it_value = t.it_interval;
  setitimer(ITIMER_PROF, &t, nullptr);
}

__attribute__((destructor)) void finish() {
  if (g_samples == nullptr || !g_on.exchange(false)) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  const std::size_t taken = g_next.load();
  const std::size_t n = taken < kMaxSamples ? taken : kMaxSamples;
  FILE* f = std::fopen(out_path().c_str(), "w");
  if (f == nullptr) return;
  char exe[4096] = {};
  if (readlink("/proc/self/exe", exe, sizeof exe - 1) < 0) exe[0] = '\0';
  std::fprintf(f, "# sigprof v1\nexe %s\ninterval_us %ld\nsamples %zu\n"
               "dropped %zu\n", exe, kIntervalUs, n, taken - n);
  // Executable mappings: "map <start> <end> <file offset> <path>".
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      unsigned long lo = 0, hi = 0, off = 0;
      char perms[8] = {}, path[4096] = {};
      if (std::sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095[^\n]", &lo, &hi,
                      perms, &off, path) == 5 &&
          perms[2] == 'x' && path[0] == '/')
        std::fprintf(f, "map %lx %lx %lx %s\n", lo, hi, off, path);
    }
    std::fclose(maps);
  }
  // One line per sample: "s <tid> <pc> ...", innermost frame first; frame
  // 0 and 1 are this handler and the signal trampoline.
  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(f, "s %d", g_samples[i].tid);
    for (int d = 0; d < g_samples[i].depth; ++d)
      std::fprintf(f, " %lx", reinterpret_cast<unsigned long>(g_samples[i].pc[d]));
    std::fputc('\n', f);
  }
  std::fclose(f);
}

}  // namespace
