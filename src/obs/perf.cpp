#include "obs/perf.hpp"

#include "obs/json.hpp"

namespace parastack::obs::perf {

void ProfileRegistry::write_json(std::ostream& out,
                                 bool include_timers) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string doc = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    json_key(doc, first, name);
    json_integer(doc, c.value());
  }
  doc += "},\"high_water\":{";
  first = true;
  for (const auto& [name, g] : high_waters_) {
    json_key(doc, first, name);
    json_integer(doc, g.value());
  }
  doc += '}';
  if (include_timers) {
    doc += ",\"timers\":{";
    first = true;
    for (const auto& [name, t] : timers_) {
      json_key(doc, first, name);
      JsonObject timer(doc);
      timer.field("ns", t.nanos()).field("calls", t.calls());
    }
    doc += '}';
  }
  doc += '}';
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
}

}  // namespace parastack::obs::perf
