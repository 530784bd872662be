#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

namespace vnet::obs {

namespace {

/// Process row of the Sampler's counter tracks. SpanRecorder::key packs
/// node ids into 16 bits, so no node row can collide with it.
constexpr int kSamplerPid = 1 << 16;

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000 < 0 ? -(ns % 1000)
                                                     : ns % 1000));
  out += buf;
}

/// Appends one event's common head: `{"ph":"<ph>","name":"<name>",
/// "pid":<pid>,"tid":<tid>,"ts":<us>` — the caller closes the object.
void open_event(std::string& out, char ph, const std::string& name, int pid,
                int tid, std::int64_t ts_ns) {
  if (out.back() != '[') out += ',';
  out += "{\"ph\":\"";
  out += ph;
  out += "\",\"name\":\"";
  append_escaped(out, name);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\",\"pid\":%d,\"tid\":%d,\"ts\":", pid,
                tid);
  out += buf;
  append_us(out, ts_ns);
}

void append_process_name(std::string& out, int pid, const std::string& name) {
  open_event(out, 'M', "process_name", pid, 0, 0);
  out += ",\"args\":{\"name\":\"";
  append_escaped(out, name);
  out += "\"}}";
}

/// One async event of the message slice `id`: begin/end/instant all share
/// cat "msg" and the id, which is what nests them in one async track.
void append_async(std::string& out, char ph, const std::string& name,
                  const SpanTrace& t, const char* id, std::int64_t ts_ns) {
  open_event(out, ph, name, static_cast<int>(t.node), static_cast<int>(t.ep),
             ts_ns);
  out += ",\"cat\":\"msg\",\"id\":\"";
  out += id;
  out += "\"}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<SpanTrace>& traces,
                              const Sampler* sampler) {
  std::string out = "{\"traceEvents\":[";
  std::set<std::uint32_t> nodes;
  for (const SpanTrace& t : traces) nodes.insert(t.node);
  for (std::uint32_t n : nodes) {
    append_process_name(out, static_cast<int>(n), "node " + std::to_string(n));
  }

  char id[24];
  for (const SpanTrace& t : traces) {
    std::snprintf(id, sizeof(id), "0x%llx",
                  static_cast<unsigned long long>(
                      SpanRecorder::key(t.node, t.ep, t.msg_id)));
    std::int64_t first = -1, last = -1;
    for (std::int64_t at : t.at) {
      if (at < 0) continue;
      if (first < 0) first = at;
      last = std::max(last, at);
    }
    for (unsigned i = 0; i < t.edge_count; ++i) {
      last = std::max(last, t.edges[i].at_ns);
    }
    if (first < 0) first = last = 0;

    const std::string msg = "msg " + std::to_string(t.msg_id);
    append_async(out, 'b', msg, t, id, first);
    const auto stages = t.critical_path();
    for (unsigned i = 0; i < kSpanStageCount; ++i) {
      if (stages[i] == 0) continue;
      // A non-zero stage starts at its (present) boundary.
      append_async(out, 'b', span_stage_name(i), t, id, t.at[i]);
      append_async(out, 'e', span_stage_name(i), t, id, t.at[i] + stages[i]);
    }
    for (unsigned i = 0; i < t.edge_count; ++i) {
      const SpanEdge& e = t.edges[i];
      append_async(out, 'n',
                   e.kind == SpanEdge::Kind::kRetransmit ? "retransmit"
                                                         : "return_to_sender",
                   t, id, e.at_ns);
    }
    append_async(out, 'e', msg, t, id, last);
  }

  if (sampler != nullptr && sampler->rows() > 0) {
    append_process_name(out, kSamplerPid, "sampler");
    char buf[48];
    for (std::size_t r = 0; r < sampler->rows(); ++r) {
      const Sampler::Row& row = sampler->row(r);
      for (const auto& [column, v] : row.cells) {
        open_event(out, 'C', column, kSamplerPid, 0, row.end_ns);
        std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.10g}}", v);
        out += buf;
      }
    }
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

}  // namespace vnet::obs
