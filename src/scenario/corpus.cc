#include "scenario/corpus.h"

#include <algorithm>
#include <set>

#include "common/strutil.h"
#include "rddr/plugins.h"

namespace rddr::scenario {

namespace {

bool is_token_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_';
}

// "Name: value" -> "Name"; empty when the line is not header-shaped.
std::string header_name(const std::string& line) {
  const size_t colon = line.find(':');
  if (colon == std::string::npos || colon == 0) return "";
  for (size_t i = 0; i < colon; ++i)
    if (!is_token_char(line[i])) return "";
  return line.substr(0, colon);
}

// ParameterStatus payload: 'S' + Int32 length + name NUL value NUL.
std::string pg_param_name(const Bytes& unit_data) {
  if (unit_data.size() <= 5) return "";
  const size_t nul = unit_data.find('\0', 5);
  if (nul == Bytes::npos) return "";
  return unit_data.substr(5, nul - 5);
}

void json_escape(std::string& out, ByteView s) {
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20 || c >= 0x7f)
          out += strformat("\\u%04x", c);
        else
          out += static_cast<char>(c);
    }
  }
}

}  // namespace

std::string fingerprint(const core::DivergenceRecord& r,
                        const core::KnownVariance& run_variance) {
  if (r.region_line == SIZE_MAX)
    return "struct|" + r.protocol + "|" + r.unit_kind;

  if (r.protocol == "pgwire") {
    if (r.unit_kind == "pg:S") {
      const std::string name = pg_param_name(r.unit_data);
      if (!name.empty()) return "pgwire|pg:S|param=" + name;
    }
    return "pgwire|" + r.unit_kind;
  }

  if (r.protocol == "http" && r.unit_kind == "http-resp" &&
      !r.unit_data.empty()) {
    // Resolve the diff region against the same comparison form the proxy
    // diffed (ignore rules shift line indices, so the run's variance is
    // required for alignment).
    const core::Unit unit{SharedBytes(ByteView(r.unit_data)), r.unit_kind};
    const std::vector<std::string> lines =
        core::HttpPlugin().comparable_lines(unit, &run_variance);
    if (r.region_line < lines.size()) {
      if (r.region_line == 0) return "http|status";
      const std::string name = header_name(lines[r.region_line]);
      if (!name.empty()) return "http|hdr=" + name;
      return "http|body";
    }
  }
  return r.protocol + "|" + r.unit_kind;
}

std::string corpus_json(const std::vector<core::DivergenceRecord>& corpus,
                        const core::KnownVariance& run_variance) {
  std::string out = "[";
  for (size_t i = 0; i < corpus.size(); ++i) {
    const core::DivergenceRecord& r = corpus[i];
    if (i) out += ",";
    out += strformat("\n  {\"t_us\":%lld,\"proxy\":\"",
                     static_cast<long long>(r.time / sim::kMicrosecond));
    json_escape(out, r.proxy);
    out += "\",\"protocol\":\"";
    json_escape(out, r.protocol);
    out += "\",\"verdict\":\"";
    json_escape(out, r.verdict);
    out += "\",\"unit_kind\":\"";
    json_escape(out, r.unit_kind);
    out += "\",\"fingerprint\":\"";
    json_escape(out, fingerprint(r, run_variance));
    out += "\",\"reason\":\"";
    json_escape(out, r.reason);
    out += strformat("\",\"region_line\":%lld,\"region_instance\":%lld,",
                     r.region_line == SIZE_MAX
                         ? -1LL
                         : static_cast<long long>(r.region_line),
                     r.region_instance == SIZE_MAX
                         ? -1LL
                         : static_cast<long long>(r.region_instance));
    out += "\"unit_prefix\":\"";
    json_escape(out, ByteView(r.unit_data).substr(
                         0, std::min<size_t>(r.unit_data.size(), 48)));
    out += "\"}";
  }
  out += "\n]";
  return out;
}

MinerReport mine_corpus(const std::vector<core::DivergenceRecord>& corpus,
                        sim::Time benign_until,
                        const core::KnownVariance& run_variance) {
  MinerReport rep;
  rep.tuned = run_variance;

  std::set<std::string> benign_fps;
  for (const core::DivergenceRecord& r : corpus)
    if (r.time < benign_until) benign_fps.insert(fingerprint(r, run_variance));

  for (const core::DivergenceRecord& r : corpus) {
    if (benign_fps.count(fingerprint(r, run_variance)))
      ++rep.benign_records;
    else
      ++rep.true_records;
  }

  // std::set iteration gives the rules a stable, sorted order.
  for (const std::string& fp : benign_fps) {
    constexpr const char* kPgParam = "pgwire|pg:S|param=";
    constexpr const char* kHttpHdr = "http|hdr=";
    if (fp.starts_with(kPgParam)) {
      const std::string name = fp.substr(std::string(kPgParam).size());
      rep.rules.push_back({"pg_param", name});
      auto& v = rep.tuned.pg_ignore_params;
      if (std::find(v.begin(), v.end(), name) == v.end()) v.push_back(name);
    } else if (fp.starts_with(kHttpHdr)) {
      const std::string name = fp.substr(std::string(kHttpHdr).size());
      rep.rules.push_back({"http_header", name});
      auto& v = rep.tuned.http_ignore_headers;
      if (std::find(v.begin(), v.end(), name) == v.end()) v.push_back(name);
    }
  }
  return rep;
}

std::string MinerReport::summary() const {
  std::string out = strformat(
      "miner: benign=%llu true=%llu rate=%.4f rules=%zu\n",
      static_cast<unsigned long long>(benign_records),
      static_cast<unsigned long long>(true_records), benign_rate(),
      rules.size());
  for (const DenoiserRule& r : rules)
    out += strformat("  ignore %s %s\n", r.kind.c_str(), r.name.c_str());
  return out;
}

}  // namespace rddr::scenario
