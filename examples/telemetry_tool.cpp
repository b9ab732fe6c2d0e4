// Inspection tooling for .tsv.pbt telemetry recordings (DESIGN.md §12):
// summary, diff, report and export; --help lists them.
//
// Exit codes: 0 ok; diff exits 1 on a flagged regression; 2 on unreadable
// input or bad usage — so CI can tell "runs differ" from "tool failed".
#include <cstdio>
#include <string>

#include "tel/analyze.h"
#include "tel/file.h"
#include "tel/report.h"
#include "tel/series.h"
#include "util/cli.h"

using namespace pbecc;

namespace {

bool load(const std::string& path, tel::Recorder* rec) {
  std::string err;
  if (!tel::read_file(path, rec, &err)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
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

int cmd_summary(const std::string& path, long long warmup_ms) {
  tel::AnalyzeConfig cfg;
  cfg.warmup = warmup_ms * util::kMillisecond;
  tel::Recorder rec;
  if (!load(path, &rec)) return 2;
  const auto s = tel::summarize(rec, cfg);
  std::fputs(tel::render_summary_text(s).c_str(), stdout);
  return 0;
}

int cmd_diff(const std::string& a_path, const std::string& b_path,
             const tel::DiffThresholds& th) {
  tel::Recorder a, b;
  if (!load(a_path, &a) || !load(b_path, &b)) return 2;
  const auto d = tel::diff(a, b, th);
  std::fputs(tel::render_diff_text(d).c_str(), stdout);
  return d.regression() ? 1 : 0;
}

int cmd_report(const std::string& path, const std::string& out,
               const std::string& title) {
  tel::Recorder rec;
  if (!load(path, &rec)) return 2;
  const auto s = tel::summarize(rec);
  if (!write_text(out, tel::render_html(rec, s, title))) return 2;
  std::printf("report: %zu series -> %s\n", rec.series().size(), out.c_str());
  return 0;
}

int cmd_export(const std::string& path, const std::string& out) {
  tel::Recorder rec;
  if (!load(path, &rec)) return 2;
  std::string text;
  if (out.ends_with(".json")) {
    text = rec.to_json();
  } else if (out.ends_with(".csv")) {
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
  std::string file, other, out, title;
  long long warmup_ms = tel::AnalyzeConfig{}.warmup / util::kMillisecond;
  tel::DiffThresholds th;
  const auto recording = [](const char* usage, std::string& to) {
    return util::text(usage, to, "a .tsv.pbt recording");
  };
  return util::dispatch(
      argc, argv,
      {{"summary",
        "accuracy, dwell and anomaly summary",
        {recording("FILE", file),
         util::whole("--warmup-ms N", warmup_ms, 0, 86'400'000,
                     "analysis warmup")},
        [&] { return cmd_summary(file, warmup_ms); }},
       {"diff",
        "compare two runs series by series; exit 1 on a regression "
        "(schema mismatch, series appearing or vanishing, mean or count "
        "drift past threshold)",
        {recording("A", file), recording("B", other),
         util::decimal("--mean-rel F", th.mean_rel, 0.0, 1000.0,
                       "flag |mean delta| > F * |mean(A)|")},
        [&] { return cmd_diff(file, other, th); }},
       {"report",
        "self-contained HTML dashboard",
        {recording("FILE", file),
         util::text("OUT.html", out, "the page to write"),
         util::text("--title T", title, "page title (default FILE)")},
        [&] { return cmd_report(file, out, title.empty() ? file : title); }},
       {"export",
        "re-encode as JSON or long CSV",
        {recording("FILE", file),
         util::text("OUT", out, "the file to write, OUT.json or OUT.csv")},
        [&] { return cmd_export(file, out); }}});
}
