// Shared helpers for the table/figure reproduction benches: tiny argument
// parsing and consistent table formatting so every bench prints rows that can
// be compared against the paper directly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "geom/scenes.hpp"

namespace photon::benchutil {

// Parses "--name=value" from argv; returns fallback when absent.
inline std::uint64_t arg_u64(int argc, char** argv, const char* name, std::uint64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

inline double arg_double(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtod(argv[i] + prefix.size(), nullptr);
    }
  }
  return fallback;
}

inline const char* arg_str(int argc, char** argv, const char* name, const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

inline void header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void rule() {
  std::printf("------------------------------------------------------------------------\n");
}

// The bundled scenes every trajectory bench sweeps, in the canonical order —
// one definition so bench_hotpath / bench_comm_batching / bench_adapt_batch
// rows stay comparable across artifacts.
struct NamedScene {
  const char* name;
  Scene scene;
};

inline std::vector<NamedScene> bundled_scenes() {
  std::vector<NamedScene> specs;
  specs.push_back({"cornell", scenes::cornell_box()});
  specs.push_back({"harpsichord", scenes::harpsichord_room()});
  specs.push_back({"lab", scenes::computer_lab()});
  return specs;
}

// Shared JSON envelope for the BENCH_*.json trajectory artifacts:
//
//   { "bench": <name>, "label": <label>, <scalar fields...>, "runs": [rows] }
//
// `scalar_fields` entries are preformatted `"key": value` strings emitted
// verbatim between the label and the runs array; `rows` are preformatted JSON
// objects, one per run. Handles the open/error/close/"wrote" epilogue every
// bench previously duplicated. Returns false (with a message on stderr) when
// the file cannot be written — callers exit nonzero on that.
inline bool write_json_artifact(const std::string& path, const char* bench,
                                const std::string& label,
                                const std::vector<std::string>& scalar_fields,
                                const std::vector<std::string>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", bench);
  std::fprintf(f, "  \"label\": \"%s\",\n", json_escape(label).c_str());
  for (const std::string& field : scalar_fields) std::fprintf(f, "  %s,\n", field.c_str());
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    %s%s\n", rows[i].c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s (label=%s)\n", path.c_str(), label.c_str());
  return true;
}

}  // namespace photon::benchutil
