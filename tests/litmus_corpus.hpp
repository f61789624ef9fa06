// The litmus corpus (tests/litmus/*.litmus), shared by the suites that run
// all of it. LRCSIM_LITMUS_DIR comes from tests/CMakeLists.txt.
#pragma once

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

namespace lrc::testutil {

/// Every program in the corpus, sorted by path.
inline std::vector<std::string> litmus_files() {
  std::vector<std::string> files;
  for (const auto& ent :
       std::filesystem::directory_iterator(LRCSIM_LITMUS_DIR)) {
    if (ent.path().extension() == ".litmus") files.push_back(ent.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace lrc::testutil
