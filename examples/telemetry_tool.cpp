// Inspection tooling for .tsv.pbt telemetry recordings (DESIGN.md §12).
//
//   telemetry_tool summary FILE            accuracy/dwell/anomaly summary
//   telemetry_tool diff A B [options]      compare two runs series-by-series
//     --mean-rel F       flag |mean delta| > F * |mean(a)|, 0..1000
//                        (default 0.01)
//     --warmup-ms N      analysis warmup for summary, 0..86400000
//                        (default 1000)
//   telemetry_tool report FILE OUT.html [--title T]
//                                          self-contained HTML dashboard
//   telemetry_tool export FILE OUT.{json,csv}
//                                          re-encode as JSON or long CSV
//
// Exit codes: 0 ok; diff exits 1 on a flagged regression (schema mismatch,
// series appearing/vanishing, mean or count drift past threshold); 2 on
// unreadable input or bad usage (a malformed or out-of-range number, a
// missing value, an unknown option) — so CI can tell "runs differ" from
// "tool failed".
#include <cstdio>
#include <cstring>
#include <string>

#include "tel/analyze.h"
#include "tel/file.h"
#include "tel/report.h"
#include "tel/series.h"
#include "util/cli.h"

using namespace pbecc;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: telemetry_tool <command> ...\n"
               "  summary FILE [--warmup-ms N]   accuracy + health summary\n"
               "                                 (N in 0..86400000 ms)\n"
               "  diff A B [--mean-rel F]        compare two recordings;\n"
               "                                 exit 1 on regression\n"
               "                                 (F in 0..1000)\n"
               "  report FILE OUT.html [--title T]  HTML dashboard\n"
               "  export FILE OUT.json|OUT.csv   convert the recording\n");
}

bool load(const std::string& path, tel::Recorder* rec) {
  std::string err;
  if (!tel::read_file(path, rec, &err)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::perror(path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "%s: short write\n", path.c_str());
    return false;
  }
  return true;
}

int cmd_summary(int argc, char** argv) {
  if (argc < 1) {
    usage(stderr);
    return 2;
  }
  tel::AnalyzeConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--warmup-ms")) {
      cfg.warmup = util::whole_number_arg("--warmup-ms",
                                          util::option_value(argc, argv, i), 0,
                                          86'400'000) *
                   util::kMillisecond;
    } else {
      std::fprintf(stderr, "summary: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  tel::Recorder rec;
  if (!load(argv[0], &rec)) return 2;
  const auto s = tel::summarize(rec, cfg);
  std::fputs(tel::render_summary_text(s).c_str(), stdout);
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  tel::DiffThresholds th;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--mean-rel")) {
      th.mean_rel = util::decimal_arg(
          "--mean-rel", util::option_value(argc, argv, i), 0.0, 1000.0);
    } else {
      std::fprintf(stderr, "diff: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  tel::Recorder a, b;
  if (!load(argv[0], &a) || !load(argv[1], &b)) return 2;
  const auto d = tel::diff(a, b, th);
  std::fputs(tel::render_diff_text(d).c_str(), stdout);
  return d.regression() ? 1 : 0;
}

int cmd_report(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  std::string title = argv[0];
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--title")) {
      title = util::option_value(argc, argv, i);
    } else {
      std::fprintf(stderr, "report: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  tel::Recorder rec;
  if (!load(argv[0], &rec)) return 2;
  const auto s = tel::summarize(rec);
  if (!write_text(argv[1], tel::render_html(rec, s, title))) return 2;
  std::printf("report: %zu series -> %s\n", rec.series().size(), argv[1]);
  return 0;
}

int cmd_export(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  tel::Recorder rec;
  if (!load(argv[0], &rec)) return 2;
  const std::string out = argv[1];
  std::string text;
  if (ends_with(out, ".json")) {
    text = rec.to_json();
  } else if (ends_with(out, ".csv")) {
    text = rec.to_csv();
  } else {
    std::fprintf(stderr, "export: output must end in .json or .csv\n");
    return 2;
  }
  if (!write_text(out, text)) return 2;
  std::printf("export: %llu samples -> %s\n",
              static_cast<unsigned long long>(rec.total_samples()),
              out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") {
    usage(stdout);
    return 0;
  }
  if (cmd == "summary") return cmd_summary(argc - 2, argv + 2);
  if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
  if (cmd == "report") return cmd_report(argc - 2, argv + 2);
  if (cmd == "export") return cmd_export(argc - 2, argv + 2);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  usage(stderr);
  return 2;
}
