#include "retask/obs/bench_compare.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "retask/common/error.hpp"
#include "retask/obs/json.hpp"

namespace retask::obs {
namespace {

constexpr const char* kSchema = "retask-bench-v1";

std::string format_metric_value(double value) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

const JsonValue& member(const JsonValue& object, const char* key) {
  const JsonValue* value = object.find(key);
  require(value != nullptr, std::string("bench report: missing key '") + key + "'");
  return *value;
}

std::uint64_t as_uint64(const JsonValue& value, const char* what) {
  const double number = value.as_number();
  require(number >= 0.0 && number <= 1.8e19 && number == std::floor(number),
          std::string("bench report: '") + what + "' must be a non-negative integer");
  return static_cast<std::uint64_t>(number);
}

}  // namespace

const double* BenchWorkloadResult::metric(const std::string& metric_name) const {
  for (const auto& [name_, value] : metrics) {
    if (name_ == metric_name) return &value;
  }
  return nullptr;
}

const BenchWorkloadResult* BenchReport::find(const std::string& name) const {
  for (const BenchWorkloadResult& workload : workloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

void write_bench_report(std::ostream& os, const BenchReport& report) {
  os << "{\n";
  os << "  \"schema\": \"" << json_escape(report.schema) << "\",\n";
  os << "  \"jobs\": " << report.jobs << ",\n";
  os << "  \"repeats\": " << report.repeats << ",\n";
  os << "  \"backend\": \"" << json_escape(report.backend) << "\",\n";
  os << "  \"workloads\": [";
  for (std::size_t w = 0; w < report.workloads.size(); ++w) {
    const BenchWorkloadResult& workload = report.workloads[w];
    os << (w == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"name\": \"" << json_escape(workload.name) << "\",\n";
    os << "      \"median_ns\": " << workload.median_ns << ",\n";
    os << "      \"runs_ns\": [";
    for (std::size_t r = 0; r < workload.runs_ns.size(); ++r) {
      os << (r == 0 ? "" : ", ") << workload.runs_ns[r];
    }
    os << "],\n";
    os << "      \"metrics\": {";
    for (std::size_t m = 0; m < workload.metrics.size(); ++m) {
      os << (m == 0 ? "\n" : ",\n");
      os << "        \"" << json_escape(workload.metrics[m].first)
         << "\": " << format_metric_value(workload.metrics[m].second);
    }
    os << (workload.metrics.empty() ? "}" : "\n      }") << "\n";
    os << "    }";
  }
  os << (report.workloads.empty() ? "]" : "\n  ]") << "\n";
  os << "}\n";
}

void write_bench_report_file(const std::string& path, const BenchReport& report) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    require(!ec, "cannot create directory '" + parent.string() + "': " + ec.message());
  }
  std::ofstream out(path);
  require(out.good(), "cannot open bench report '" + path + "' for writing");
  write_bench_report(out, report);
  out.flush();
  require(out.good(), "failed writing bench report '" + path + "'");
}

BenchReport read_bench_report(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const JsonValue document = parse_json(buffer.str());
  require(document.type == JsonValue::Type::kObject, "bench report: top level must be an object");

  BenchReport report;
  report.schema = member(document, "schema").as_string();
  require(report.schema == kSchema,
          "bench report: unsupported schema '" + report.schema + "' (expected " + kSchema + ")");
  report.jobs = static_cast<int>(as_uint64(member(document, "jobs"), "jobs"));
  report.repeats = static_cast<int>(as_uint64(member(document, "repeats"), "repeats"));
  if (const JsonValue* backend = document.find("backend")) {
    report.backend = backend->as_string();
  }

  for (const JsonValue& entry : member(document, "workloads").as_array()) {
    require(entry.type == JsonValue::Type::kObject, "bench report: workload must be an object");
    BenchWorkloadResult workload;
    workload.name = member(entry, "name").as_string();
    require(!workload.name.empty(), "bench report: workload name must be non-empty");
    workload.median_ns = as_uint64(member(entry, "median_ns"), "median_ns");
    for (const JsonValue& run : member(entry, "runs_ns").as_array()) {
      workload.runs_ns.push_back(as_uint64(run, "runs_ns"));
    }
    if (const JsonValue* metrics = entry.find("metrics")) {
      require(metrics->type == JsonValue::Type::kObject,
              "bench report: metrics must be an object");
      for (const auto& [name, value] : metrics->object) {
        workload.metrics.emplace_back(name, value.as_number());
      }
    }
    require(report.find(workload.name) == nullptr,
            "bench report: duplicate workload '" + workload.name + "'");
    report.workloads.push_back(std::move(workload));
  }
  return report;
}

BenchReport read_bench_report_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open bench report '" + path + "'");
  return read_bench_report(in);
}

BenchComparison compare_bench_reports(const BenchReport& current, const BenchReport& baseline,
                                      double threshold) {
  require(threshold > 0.0, "compare_bench_reports: threshold must be positive");
  BenchComparison comparison;
  for (const BenchWorkloadResult& base : baseline.workloads) {
    const BenchWorkloadResult* cur = current.find(base.name);
    if (cur == nullptr) {
      comparison.missing.push_back(base.name);
      continue;
    }
    // A zero baseline median carries no timing signal (sub-resolution
    // workload); skip the ratio rather than dividing by zero.
    if (base.median_ns > 0) {
      const double ratio =
          static_cast<double>(cur->median_ns) / static_cast<double>(base.median_ns);
      if (ratio > threshold) {
        comparison.regressions.push_back({base.name, base.median_ns, cur->median_ns, ratio});
      } else if (ratio < 1.0 / threshold) {
        // Symmetric to the regression gate: a run this much faster means the
        // baseline is stale and masks future regressions of the same size.
        comparison.improvements.push_back({base.name, base.median_ns, cur->median_ns, ratio});
      }
    }
    for (const auto& [metric_name, base_value] : base.metrics) {
      const double* cur_value = cur->metric(metric_name);
      if (cur_value == nullptr) {
        comparison.metric_drift.push_back({base.name, metric_name, base_value, std::nullopt});
      } else if (*cur_value != base_value) {
        comparison.metric_drift.push_back({base.name, metric_name, base_value, *cur_value});
      }
    }
    for (const auto& [metric_name, cur_value] : cur->metrics) {
      if (base.metric(metric_name) == nullptr) {
        comparison.metric_drift.push_back({base.name, metric_name, std::nullopt, cur_value});
      }
    }
  }
  for (const BenchWorkloadResult& cur : current.workloads) {
    if (baseline.find(cur.name) == nullptr) comparison.added.push_back(cur.name);
  }
  return comparison;
}

}  // namespace retask::obs
