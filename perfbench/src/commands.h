#ifndef PERFBENCH_COMMANDS_H_
#define PERFBENCH_COMMANDS_H_

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>

namespace perfbench {

/// `--name value` flags of one subcommand.
class Flags {
 public:
  bool Parse(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0 || i + 1 >= argc) return false;
      values_[arg.substr(2)] = argv[++i];
    }
    return true;
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  uint64_t GetU64(const std::string& name, uint64_t fallback = 0) const {
    return Has(name) ? std::strtoull(Get(name).c_str(), nullptr, 10)
                     : fallback;
  }
  double GetDouble(const std::string& name, double fallback = 0) const {
    return Has(name) ? std::strtod(Get(name).c_str(), nullptr) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// JSON text of a string (quoted, escaped) and of a number (all digits).
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

bool ReadWholeFile(const std::string& path, std::string* out);
bool WriteWholeFile(const std::string& path, const std::string& data);

int RunGen(const Flags& flags);
int RunSchedule(const Flags& flags);
int RunLoad(const Flags& flags);
int RunReplay(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_COMMANDS_H_
