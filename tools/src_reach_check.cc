// src_reach_check — fails when a src/ file is reachable only from tests.
//
// Every module under src/ must be reachable from a bench, an example, a
// tool or perfbench; a module that only tests reach is dead weight. The
// check follows `#include "..."` lines, not calls: it proves a file is
// compiled into something a user runs, not that any of its functions are
// called. A header that a reached file includes but never uses still
// counts as reached.
//
// Roots: every .h/.cc/.cpp file under bench/, examples/, tools/ and
// perfbench/. From there, reachability closes under three rules:
//
//   1. A reached file reaches every file it `#include "..."`s. A quoted
//      include resolves against the including file's directory, then
//      src/, then the repo root (the include paths the builds set).
//   2. A reached header reaches the .cc file with the same stem
//      (query/optimizer.h reaches query/optimizer.cc).
//   3. A .cc file with no header of its own is reached when it includes
//      a reached header (obs/blackbox/sink.cc, obs/alloc_count_new.cc).
//
// Usage: src_reach_check <repo_root>
// Prints every src/ file not reached and exits 1; exits 0 when all are.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

/// The quoted includes of `file`, resolved to existing paths.
std::vector<fs::path> Includes(const fs::path& file, const fs::path& root) {
  static const std::regex kInclude(R"re(^\s*#\s*include\s*"([^"]+)")re");
  std::vector<fs::path> out;
  std::ifstream in(file);
  std::string line;
  std::smatch m;
  while (std::getline(in, line)) {
    if (!std::regex_search(line, m, kInclude)) continue;
    for (const fs::path& dir : {file.parent_path(), root / "src", root}) {
      const fs::path candidate = dir / m[1].str();
      if (fs::is_regular_file(candidate)) {
        out.push_back(fs::weakly_canonical(candidate));
        break;
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: src_reach_check <repo_root>\n");
    return 2;
  }
  const fs::path root = fs::weakly_canonical(argv[1]);
  const fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    std::fprintf(stderr, "src_reach_check: no src/ under %s\n",
                 root.string().c_str());
    return 2;
  }

  std::set<fs::path> src_files;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (entry.is_regular_file() && IsSourceFile(entry.path())) {
      src_files.insert(fs::weakly_canonical(entry.path()));
    }
  }

  std::set<fs::path> reached;
  std::vector<fs::path> pending;
  auto reach = [&](const fs::path& p) {
    if (reached.insert(p).second) pending.push_back(p);
  };
  for (const char* dir : {"bench", "examples", "tools", "perfbench"}) {
    if (!fs::is_directory(root / dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      if (entry.is_regular_file() && IsSourceFile(entry.path())) {
        reach(fs::weakly_canonical(entry.path()));
      }
    }
  }

  // Rules 1 and 2 run to a fixpoint; rule 3 then adds any header-less .cc
  // that includes a reached header, and the loop closes again over it.
  bool grew = true;
  while (grew) {
    while (!pending.empty()) {
      const fs::path file = pending.back();
      pending.pop_back();
      for (const fs::path& inc : Includes(file, root)) reach(inc);
      if (file.extension() == ".h") {
        const fs::path cc = fs::path(file).replace_extension(".cc");
        if (src_files.count(cc) > 0) reach(cc);
      }
    }
    grew = false;
    for (const fs::path& f : src_files) {
      if (reached.count(f) > 0 || f.extension() != ".cc") continue;
      if (src_files.count(fs::path(f).replace_extension(".h")) > 0) continue;
      for (const fs::path& inc : Includes(f, root)) {
        if (inc.extension() == ".h" && reached.count(inc) > 0) {
          reach(f);
          grew = true;
          break;
        }
      }
    }
  }

  int unreached = 0;
  for (const fs::path& f : src_files) {
    if (reached.count(f) > 0) continue;
    std::printf("UNREACHED  %s\n", fs::relative(f, root).string().c_str());
    ++unreached;
  }
  if (unreached > 0) {
    std::fprintf(stderr,
                 "src_reach_check: %d of %zu src/ files are reached from no "
                 "bench, example, tool or perfbench file — wire them in or "
                 "delete them\n",
                 unreached, src_files.size());
    return 1;
  }
  std::printf("src_reach_check: all %zu src/ files reached\n",
              src_files.size());
  return 0;
}
