#include "eval/trace.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "common/zipf.h"
#include "io/binary_io.h"

/// \file trace.cc
/// \brief Trace validation, binary codec and synthetic generation.

namespace smb::eval {

namespace {

/// magic(8) + version(4) + body_size(8) + body_checksum(8).
constexpr size_t kTraceHeaderSize = 8 + 4 + 8 + 8;

void WriteDouble(io::BinaryWriter* w, double value) {
  w->WriteU64(std::bit_cast<uint64_t>(value));
}

Result<double> ReadDouble(io::BinaryReader* r, std::string_view context) {
  SMB_ASSIGN_OR_RETURN(uint64_t bits, r->ReadU64(context));
  return std::bit_cast<double>(bits);
}

}  // namespace

Status ValidateTrace(const WorkloadTrace& trace) {
  if (trace.query_files.empty()) {
    return Status::InvalidArgument("trace has no query files");
  }
  if (trace.classes.empty()) {
    return Status::InvalidArgument(
        "trace has no deadline classes (needs at least 'default')");
  }
  uint64_t previous_arrival = 0;
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const TraceRequest& request = trace.requests[i];
    if (request.query_index >= trace.query_files.size()) {
      return Status::InvalidArgument(
          "trace request " + std::to_string(i) + " references query " +
          std::to_string(request.query_index) + " but the trace has " +
          std::to_string(trace.query_files.size()) + " query file(s)");
    }
    if (request.class_index >= trace.classes.size()) {
      return Status::InvalidArgument(
          "trace request " + std::to_string(i) + " references class " +
          std::to_string(request.class_index) + " but the trace has " +
          std::to_string(trace.classes.size()) + " class(es)");
    }
    if (request.arrival_us < previous_arrival) {
      return Status::InvalidArgument(
          "trace request " + std::to_string(i) +
          " arrives before its predecessor (arrivals must be "
          "non-decreasing)");
    }
    previous_arrival = request.arrival_us;
    if (!std::isfinite(request.target_bound) || request.target_bound < 0.0 ||
        request.target_bound > 1.0) {
      return Status::InvalidArgument(
          "trace request " + std::to_string(i) +
          " has target bound outside [0, 1]");
    }
    if (!std::isfinite(request.deadline_ms) || request.deadline_ms < 0.0) {
      return Status::InvalidArgument("trace request " + std::to_string(i) +
                                     " has a negative deadline");
    }
  }
  return Status::OK();
}

Result<std::string> EncodeTrace(const WorkloadTrace& trace) {
  SMB_RETURN_IF_ERROR(ValidateTrace(trace));
  io::BinaryWriter body;
  body.WriteU64(trace.seed);
  body.WriteStringVector(trace.query_files);
  body.WriteStringVector(trace.classes);
  body.WriteU64(trace.requests.size());
  for (const TraceRequest& request : trace.requests) {
    body.WriteU32(request.query_index);
    body.WriteU64(request.arrival_us);
    body.WriteU16(request.class_index);
    WriteDouble(&body, request.target_bound);
    WriteDouble(&body, request.deadline_ms);
  }

  io::BinaryWriter out;
  out.WriteBytes(kTraceMagic);
  out.WriteU32(kTraceFormatVersion);
  out.WriteU64(body.buffer().size());
  out.WriteU64(io::Checksum64(body.buffer()));
  out.WriteBytes(body.buffer());
  return std::move(out.TakeBuffer());
}

Result<WorkloadTrace> DecodeTrace(std::string_view bytes) {
  if (bytes.size() < kTraceHeaderSize) {
    return Status::ParseError(
        "trace truncated: " + std::to_string(bytes.size()) +
        " byte(s), but the header alone is " +
        std::to_string(kTraceHeaderSize) + " — regenerate the trace");
  }
  io::BinaryReader r(bytes);
  const std::string magic = r.ReadBytes(kTraceMagic.size(), "magic").value();
  if (magic != kTraceMagic) {
    return Status::ParseError(
        "not a matchbounds workload trace (magic bytes mismatch)");
  }
  const uint32_t version = r.ReadU32("version").value();
  if (version < kTraceMinFormatVersion || version > kTraceFormatVersion) {
    return Status::FailedPrecondition(
        "trace has format version " + std::to_string(version) +
        " but this binary reads versions " +
        std::to_string(kTraceMinFormatVersion) + ".." +
        std::to_string(kTraceFormatVersion) + " — regenerate the trace");
  }
  const uint64_t body_size = r.ReadU64("body size").value();
  const uint64_t body_checksum = r.ReadU64("body checksum").value();
  if (r.remaining() < body_size) {
    return Status::ParseError(
        "trace truncated: body declares " + std::to_string(body_size) +
        " byte(s) but only " + std::to_string(r.remaining()) +
        " follow the header — regenerate the trace");
  }
  if (r.remaining() > body_size) {
    return Status::ParseError(
        "trace has " + std::to_string(r.remaining() - body_size) +
        " trailing byte(s) after the declared body — file corrupted");
  }
  const std::string_view body = bytes.substr(kTraceHeaderSize);
  if (io::Checksum64(body) != body_checksum) {
    return Status::ParseError(
        "trace body checksum mismatch — file corrupted, regenerate the "
        "trace");
  }

  WorkloadTrace trace;
  SMB_ASSIGN_OR_RETURN(trace.seed, r.ReadU64("seed"));
  SMB_ASSIGN_OR_RETURN(trace.query_files,
                       r.ReadStringVector("query file table"));
  SMB_ASSIGN_OR_RETURN(trace.classes, r.ReadStringVector("class table"));
  SMB_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64("request count"));
  // Each request occupies 30 body bytes; reject a count the remaining
  // bytes cannot hold before reserving anything.
  constexpr uint64_t kRequestBytes = 4 + 8 + 2 + 8 + 8;
  if (count > r.remaining() / kRequestBytes) {
    return Status::ParseError(
        "trace declares " + std::to_string(count) +
        " request(s) but only " + std::to_string(r.remaining()) +
        " body byte(s) remain — file corrupted");
  }
  trace.requests.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TraceRequest request;
    SMB_ASSIGN_OR_RETURN(request.query_index, r.ReadU32("query index"));
    SMB_ASSIGN_OR_RETURN(request.arrival_us, r.ReadU64("arrival"));
    SMB_ASSIGN_OR_RETURN(request.class_index, r.ReadU16("class index"));
    SMB_ASSIGN_OR_RETURN(request.target_bound,
                         ReadDouble(&r, "target bound"));
    SMB_ASSIGN_OR_RETURN(request.deadline_ms, ReadDouble(&r, "deadline"));
    trace.requests.push_back(request);
  }
  if (r.remaining() != 0) {
    return Status::ParseError(
        "trace has " + std::to_string(r.remaining()) +
        " undecoded byte(s) after the last request — file corrupted");
  }
  // Semantic validation after integrity: a bit flip inside an index field
  // that survives the checksum odds still cannot produce an out-of-range
  // replay.
  SMB_RETURN_IF_ERROR(ValidateTrace(trace));
  return trace;
}

Status SaveTrace(const std::string& path, const WorkloadTrace& trace) {
  SMB_ASSIGN_OR_RETURN(std::string encoded, EncodeTrace(trace));
  return io::WriteBinaryFileAtomic(path, encoded);
}

Result<WorkloadTrace> LoadTrace(const std::string& path) {
  SMB_ASSIGN_OR_RETURN(std::string bytes, io::ReadBinaryFile(path));
  return DecodeTrace(bytes);
}

Result<std::vector<double>> ParseTargetMix(const std::string& text) {
  std::vector<double> mix;
  if (text.empty()) return mix;
  for (const std::string& piece : Split(text, ',')) {
    char* end = nullptr;
    const double bound = std::strtod(piece.c_str(), &end);
    if (end == piece.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad target mix entry '" + piece + "'");
    }
    mix.push_back(bound);
  }
  return mix;
}

Result<WorkloadTrace> GenerateTrace(std::vector<std::string> query_files,
                                    const TraceGenOptions& options) {
  if (query_files.empty()) {
    return Status::InvalidArgument(
        "trace generation needs at least one query file");
  }
  if (options.num_requests == 0) {
    return Status::InvalidArgument("trace needs num_requests > 0");
  }
  if (!(options.arrival_rate_qps > 0.0) ||
      !std::isfinite(options.arrival_rate_qps)) {
    return Status::InvalidArgument("arrival_rate_qps must be > 0");
  }
  if (options.zipf_exponent < 0.0) {
    return Status::InvalidArgument("zipf_exponent must be >= 0");
  }
  for (const double target : options.target_mix) {
    if (!std::isfinite(target) || target < 0.0 || target > 1.0) {
      return Status::InvalidArgument("target_mix entries must be in [0, 1]");
    }
  }
  std::vector<TraceClassSpec> classes = options.classes;
  if (classes.empty()) classes.push_back(TraceClassSpec{});
  if (classes.size() > UINT16_MAX) {
    return Status::InvalidArgument("too many deadline classes");
  }
  double total_weight = 0.0;
  for (const TraceClassSpec& spec : classes) {
    if (!(spec.weight > 0.0) || !std::isfinite(spec.weight)) {
      return Status::InvalidArgument("class '" + spec.name +
                                     "' needs weight > 0");
    }
    if (!std::isfinite(spec.deadline_ms) || spec.deadline_ms < 0.0) {
      return Status::InvalidArgument("class '" + spec.name +
                                     "' has a negative deadline");
    }
    total_weight += spec.weight;
  }

  WorkloadTrace trace;
  trace.seed = options.seed;
  trace.query_files = std::move(query_files);
  for (const TraceClassSpec& spec : classes) {
    trace.classes.push_back(spec.name);
  }

  Rng rng(options.seed);
  const ZipfSampler popularity(trace.query_files.size(),
                               options.zipf_exponent);
  double arrival_seconds = 0.0;
  trace.requests.reserve(options.num_requests);
  for (uint64_t i = 0; i < options.num_requests; ++i) {
    TraceRequest request;
    request.query_index = static_cast<uint32_t>(popularity.Sample(&rng));
    // Poisson process: exponential inter-arrival gaps at the mean rate.
    const double u = rng.UniformDouble();
    arrival_seconds += -std::log(1.0 - u) / options.arrival_rate_qps;
    request.arrival_us = static_cast<uint64_t>(arrival_seconds * 1e6);
    double pick = rng.UniformDouble() * total_weight;
    uint16_t class_index = 0;
    for (size_t c = 0; c < classes.size(); ++c) {
      pick -= classes[c].weight;
      if (pick <= 0.0) {
        class_index = static_cast<uint16_t>(c);
        break;
      }
    }
    request.class_index = class_index;
    request.deadline_ms = classes[class_index].deadline_ms;
    if (!options.target_mix.empty()) {
      request.target_bound =
          options.target_mix[rng.UniformIndex(options.target_mix.size())];
    }
    trace.requests.push_back(request);
  }
  SMB_RETURN_IF_ERROR(ValidateTrace(trace));
  return trace;
}

}  // namespace smb::eval
