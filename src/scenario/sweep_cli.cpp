#include "scenario/sweep_cli.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "sim/kernel.hpp"

namespace mcan {

namespace {

bool looks_like_int(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

bool parse_int(const std::string& s, long long& out) {
  if (!looks_like_int(s)) return false;
  out = std::atoll(s.c_str());
  return true;
}

}  // namespace

ProtocolParams parse_protocol_arg(const std::string& token) {
  if (token == "can" || token == "standard") {
    return ProtocolParams::standard_can();
  }
  if (token == "minor") return ProtocolParams::minor_can();
  if (token == "major") return ProtocolParams::major_can(3);
  if (token.rfind("major:", 0) == 0) {
    long long m = 0;
    if (!parse_int(token.substr(6), m) || m < 1 || m > 31) {
      throw std::invalid_argument("bad MajorCAN order in '" + token +
                                  "' (want major:<m>, m in [1, 31])");
    }
    return ProtocolParams::major_can(static_cast<int>(m));
  }
  throw std::invalid_argument("unknown protocol '" + token +
                              "' (want can|minor|major|major:<m>)");
}

std::vector<ProtocolParams> default_protocol_set() {
  return {ProtocolParams::standard_can(), ProtocolParams::minor_can(),
          ProtocolParams::major_can(3), ProtocolParams::major_can(5)};
}

std::vector<ProtocolParams> SweepOptions::protocol_set() const {
  return protocols.empty() ? default_protocol_set() : protocols;
}

bool parse_sweep_args(int argc, char** argv, SweepOptions& opt,
                      std::vector<std::string>& rest, std::string& error) {
  auto need_value = [&](int& i, const std::string& flag,
                        std::string& out) -> bool {
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    out = argv[++i];
    return true;
  };
  auto need_int = [&](int& i, const std::string& flag,
                      long long& out) -> bool {
    std::string v;
    if (!need_value(i, flag, v)) return false;
    if (!parse_int(v, out)) {
      error = flag + ": '" + v + "' is not an integer";
      return false;
    }
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    long long v = 0;
    if (a == "--protocol" || a == "-p") {
      std::string tok;
      if (!need_value(i, a, tok)) return false;
      try {
        opt.protocols.push_back(parse_protocol_arg(tok));
      } catch (const std::invalid_argument& e) {
        error = e.what();
        return false;
      }
    } else if (a == "--errors" || a == "-k") {
      if (!need_int(i, a, v)) return false;
      opt.max_k = static_cast<int>(v);
    } else if (a == "--nodes" || a == "-n") {
      if (!need_int(i, a, v)) return false;
      opt.n_nodes = static_cast<int>(v);
    } else if (a == "--jobs" || a == "-j") {
      if (!need_int(i, a, v)) return false;
      if (v < 0 || v > std::numeric_limits<int>::max()) {
        error = "--jobs: '" + std::string(argv[i]) +
                "' is out of range (want 0 = one per hardware thread, or a"
                " thread count that fits in an int)";
        return false;
      }
      opt.jobs = static_cast<int>(v);
    } else if (a == "--budget") {
      if (!need_int(i, a, v)) return false;
      opt.budget = v;
    } else if (a == "--json") {
      if (!need_value(i, a, opt.json)) return false;
    } else if (a == "--kernel") {
      std::string k;
      if (!need_value(i, a, k)) return false;
      const std::optional<KernelKind> kind = parse_kernel_name(k);
      if (!kind) {
        error = "--kernel: '" + k + "' is not ref|fast";
        return false;
      }
      opt.kernel = *kind;
      // Applied at parse time: every bus this process builds through
      // Network — campaign workers included — inherits the selection.
      set_default_kernel(*kind);
    } else if (a == "--no-dedup") {
      opt.dedup = false;
    } else if (a == "--no-symmetry") {
      opt.symmetry = false;
    } else if (a == "--no-progress") {
      opt.progress = false;
    } else if (a == "--window") {
      std::string w;
      if (!need_value(i, a, w)) return false;
      const std::size_t colon = w.find(':');
      long long lo = 0, hi = 0;
      if (colon == std::string::npos || !parse_int(w.substr(0, colon), lo) ||
          !parse_int(w.substr(colon + 1), hi)) {
        error = "--window: '" + w + "' is not LO:HI";
        return false;
      }
      opt.win_lo = static_cast<int>(lo);
      opt.win_hi = static_cast<int>(hi);
    } else if (rest.empty() && looks_like_int(a)) {
      // Bare positional integer: legacy bench_exhaustive usage, same as -k.
      // Only before any unrecognized flag — a later integer is more likely
      // that flag's value and belongs to the caller.
      opt.max_k = static_cast<int>(std::atoll(a.c_str()));
    } else {
      rest.push_back(a);
    }
  }
  return true;
}

const char* sweep_flags_help() {
  return "  --protocol, -p P   sweep protocol P: can|minor|major|major:<m>\n"
         "                     (repeatable; default: can minor major:3"
         " major:5)\n"
         "  --errors, -k N     error budget; sweeps run k = 1..N"
         " (default 2)\n"
         "  --nodes, -n N      bus size (default 3)\n"
         "  --jobs, -j N       worker threads (default 0 = hardware)\n"
         "  --budget N         stop each sweep after N cases (0 ="
         " exhaustive)\n"
         "  --window LO:HI     flip window override, EOF-relative bits\n"
         "  --json PATH        write a machine-readable result to PATH\n"
         "  --kernel K         bit engine: ref (reference loop) or fast\n"
         "                     (event-skipping, certified bit-identical)\n"
         "  --no-dedup         disable tail memoization + prefix cloning\n"
         "  --no-symmetry      disable receiver-permutation reduction\n"
         "  --no-progress      silence the stderr progress meter\n";
}

}  // namespace mcan
