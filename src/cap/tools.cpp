#include "cap/tools.h"

#include <memory>
#include <optional>

#include "cap/trace_reader.h"
#include "cap/trace_writer.h"

namespace pbecc::cap {

namespace {

void tally(const Record& rec, TraceSummary& s) {
  ++s.records;
  switch (rec.kind) {
    case Record::Kind::kBatch:
      if (s.batches == 0) s.first_sf = rec.batch.sf_index;
      s.last_sf = rec.batch.sf_index;
      ++s.batches;
      s.cell_subframes += rec.batch.cells.size();
      for (const auto& c : rec.batch.cells) ++s.cell_counts[c.cell];
      break;
    case Record::Kind::kWindow:
    case Record::Kind::kProbe: {
      const util::Time t =
          rec.kind == Record::Kind::kWindow ? rec.window.t : rec.probe.t;
      if (s.window_sets + s.probes == 0) s.first_t = t;
      s.last_t = t;
      if (rec.kind == Record::Kind::kWindow) {
        ++s.window_sets;
      } else {
        ++s.probes;
      }
      break;
    }
  }
}

std::vector<std::uint8_t> encoded_header(const TraceHeader& h) {
  ByteWriter w;
  encode_header(h, w);
  return std::move(w).take();
}

// The timestamp a record orders by when slicing: batches use their
// subframe's start, timed records their own t.
util::Time record_time(const Record& rec) {
  switch (rec.kind) {
    case Record::Kind::kBatch:
      return util::subframe_start(rec.batch.sf_index);
    case Record::Kind::kWindow:
      return rec.window.t;
    case Record::Kind::kProbe:
      return rec.probe.t;
  }
  return 0;
}

}  // namespace

bool summarize(const std::string& path, TraceSummary& out, std::string& err) {
  out = TraceSummary{};
  TraceReader reader(path);
  if (!reader.ok()) {
    err = reader.error();
    return false;
  }
  out.version = reader.version();
  out.header = reader.header();
  Record rec;
  while (reader.next(rec)) tally(rec, out);
  out.chunks = reader.chunks_read();
  out.complete = reader.ok();
  if (!out.complete) out.damage = reader.error();
  return true;
}

bool verify(const std::string& path, TraceSummary& out, std::string& err) {
  out = TraceSummary{};
  TraceReader reader(path);
  if (!reader.ok()) {
    err = reader.error();
    return false;
  }
  out.version = reader.version();
  out.header = reader.header();
  std::optional<std::int64_t> prev_sf;
  util::Time prev_t = 0;
  Record rec;
  while (reader.next(rec)) {
    if (rec.kind == Record::Kind::kBatch) {
      if (prev_sf && rec.batch.sf_index <= *prev_sf) {
        err = path + ": batch sf_index not strictly increasing (" +
              std::to_string(*prev_sf) + " then " +
              std::to_string(rec.batch.sf_index) + ")";
        return false;
      }
      prev_sf = rec.batch.sf_index;
    } else {
      const util::Time t =
          rec.kind == Record::Kind::kWindow ? rec.window.t : rec.probe.t;
      if (t < prev_t) {
        err = path + ": timed records run backwards (" +
              std::to_string(prev_t) + "us then " + std::to_string(t) + "us)";
        return false;
      }
      prev_t = t;
    }
    tally(rec, out);
  }
  out.chunks = reader.chunks_read();
  out.complete = reader.ok();
  if (!out.complete) {
    err = reader.error();
    return false;
  }
  return true;
}

bool cut(const std::string& in, const std::string& out_path,
         std::int64_t sf_from, std::int64_t sf_to, std::string& err) {
  if (sf_from > sf_to) {
    err = "cut range is empty (from " + std::to_string(sf_from) + " to " +
          std::to_string(sf_to) + ")";
    return false;
  }
  TraceReader reader(in);
  if (!reader.ok()) {
    err = reader.error();
    return false;
  }
  TraceWriter writer(out_path);
  writer.begin(reader.header());
  const util::Time t_from = util::subframe_start(sf_from);
  const util::Time t_to = util::subframe_start(sf_to + 1);
  Record rec;
  while (reader.next(rec)) {
    const util::Time t = record_time(rec);
    if (t < t_from || t >= t_to) continue;
    switch (rec.kind) {
      case Record::Kind::kBatch:
        writer.record_batch(rec.batch);
        break;
      case Record::Kind::kWindow:
        writer.record_window(rec.window.t, rec.window.window);
        break;
      case Record::Kind::kProbe:
        writer.record_probe(rec.probe.t);
        break;
    }
  }
  if (!reader.ok()) {
    err = reader.error();
    return false;
  }
  if (!writer.close()) {
    err = writer.error();
    return false;
  }
  return true;
}

bool merge(const std::vector<std::string>& inputs,
           const std::string& out_path, std::string& err) {
  if (inputs.empty()) {
    err = "merge needs at least one input trace";
    return false;
  }
  std::unique_ptr<TraceWriter> writer;
  std::vector<std::uint8_t> header_bytes;
  std::int64_t last_sf = 0;
  bool any_batch = false;
  for (const auto& in : inputs) {
    TraceReader reader(in);
    if (!reader.ok()) {
      err = reader.error();
      return false;
    }
    if (!writer) {
      header_bytes = encoded_header(reader.header());
      writer = std::make_unique<TraceWriter>(out_path);
      writer->begin(reader.header());
    } else if (encoded_header(reader.header()) != header_bytes) {
      err = in + ": header differs from " + inputs.front() +
            " (merge requires identical pipeline configuration)";
      return false;
    }
    Record rec;
    while (reader.next(rec)) {
      switch (rec.kind) {
        case Record::Kind::kBatch:
          if (any_batch && rec.batch.sf_index < last_sf) {
            err = in + ": batch sf " + std::to_string(rec.batch.sf_index) +
                  " precedes sf " + std::to_string(last_sf) +
                  " from an earlier input (inputs must be in stream order)";
            return false;
          }
          last_sf = rec.batch.sf_index;
          any_batch = true;
          writer->record_batch(rec.batch);
          break;
        case Record::Kind::kWindow:
          writer->record_window(rec.window.t, rec.window.window);
          break;
        case Record::Kind::kProbe:
          writer->record_probe(rec.probe.t);
          break;
      }
    }
    if (!reader.ok()) {
      err = reader.error();
      return false;
    }
  }
  if (!writer->close()) {
    err = writer->error();
    return false;
  }
  return true;
}

}  // namespace pbecc::cap
