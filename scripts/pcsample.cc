// PC sampler for x86-64 Linux: an LD_PRELOAD library that samples the
// program counter of the process it is loaded into.
//
//   c++ -O2 -shared -fPIC -o pcsample.so scripts/pcsample.cc
//   PCSAMPLE_OUT=run1.pcs LD_PRELOAD=$PWD/pcsample.so ./program args
//   python3 scripts/pcsample_report.py run1.pcs
//
// At load it arms ITIMER_PROF, which counts this process's CPU time only.
// Each SIGPROF stores the interrupted instruction pointer in a preallocated
// buffer; the handler neither allocates nor writes. At exit the library
// writes the load base and address range of the executable and of every
// shared object, then one PC per line, to $PCSAMPLE_OUT. Without
// PCSAMPLE_OUT it does nothing. The kernel fires the timer at its tick, so
// the 1 ms request yields one sample per tick (4 ms at HZ=250).
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_taken{0};

void on_sigprof(int, siginfo_t*, void* context) {
  const std::size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) return;
  const auto* uc = static_cast<const ucontext_t*>(context);
  g_pcs[i] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
}

/// One "object <base> <start> <end> <path>" line per loaded object; the
/// first dl_iterate_phdr reports is the executable, which has no name.
int write_object(dl_phdr_info* info, std::size_t, void* out) {
  static bool first = true;
  std::uintptr_t start = UINTPTR_MAX;
  std::uintptr_t end = 0;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD) continue;
    const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    start = std::min(start, lo);
    end = std::max(end, lo + ph.p_memsz);
  }
  char exe[4096] = {};
  const char* path = info->dlpi_name;
  if (first) {
    first = false;
    if (readlink("/proc/self/exe", exe, sizeof(exe) - 1) <= 0) return 0;
    path = exe;
  } else if (path == nullptr || path[0] == '\0') {
    return 0;
  }
  std::fprintf(static_cast<std::FILE*>(out), "object %#lx %#lx %#lx %s\n",
               static_cast<unsigned long>(info->dlpi_addr),
               static_cast<unsigned long>(start),
               static_cast<unsigned long>(end), path);
  return 0;
}

__attribute__((constructor)) void start_sampling() {
  if (std::getenv("PCSAMPLE_OUT") == nullptr) return;
  struct sigaction action = {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  const itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
}

__attribute__((destructor)) void write_samples() {
  const char* path = std::getenv("PCSAMPLE_OUT");
  if (path == nullptr) return;
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  const std::size_t taken = g_taken.load();
  const std::size_t kept = std::min(taken, kMaxSamples);
  std::fprintf(out, "samples %zu dropped %zu\n", kept, taken - kept);
  dl_iterate_phdr(write_object, out);
  for (std::size_t i = 0; i < kept; ++i) {
    std::fprintf(out, "%#lx\n", static_cast<unsigned long>(g_pcs[i]));
  }
  std::fclose(out);
}

}  // namespace
