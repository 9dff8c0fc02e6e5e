// Runs one command and reports what it cost the host (not a paper figure;
// bench/run_benches.sh drives it):
//
//   host_cost <report> <exe> [args...]
//
// The command inherits stdin, stdout, stderr and the working directory.
// <report> receives {"wall_s": <s>, "peak_rss_mb": <MiB>}, and host_cost
// exits with the command's status. Linux carries a process's RSS high-water
// mark across exec, so a command forked by a large parent (a Python
// script) reports at least that parent's RSS; forked from this small
// program, it reports its own.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <report> <exe> [args...]\n", argv[0]);
    return 2;
  }
  auto t0 = std::chrono::steady_clock::now();
  pid_t pid = fork();
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror(argv[2]);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (pid < 0 || wait4(pid, &status, 0, &usage) < 0) {
    std::perror("host_cost");
    return 2;
  }
  double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::FILE* f = std::fopen(argv[1], "w");
  if (f == nullptr) {
    std::perror(argv[1]);
    return 2;
  }
  // ru_maxrss is in KiB on Linux.
  std::fprintf(f, "{\"wall_s\": %.3f, \"peak_rss_mb\": %.1f}\n", wall_s,
               static_cast<double>(usage.ru_maxrss) / 1024);
  std::fclose(f);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
