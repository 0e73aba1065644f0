#include "hw/cluster_spec.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace hetpipe::hw {
namespace {

[[noreturn]] void Fail(const std::string& what, const std::string& context) {
  throw std::invalid_argument("cluster spec: " + what +
                              (context.empty() ? "" : " in \"" + context + "\""));
}

// Shortest round-trip decimal form, so ToString() -> Parse() is lossless.
std::string FormatDouble(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) {
    return std::to_string(v);
  }
  return std::string(buf, ptr);
}

double ParseDouble(const std::string& token, const std::string& context) {
  double v = 0.0;
  const char* begin = token.c_str();
  const auto [ptr, ec] = std::from_chars(begin, begin + token.size(), v);
  if (ec != std::errc() || ptr != begin + token.size()) {
    Fail("expected a number, got \"" + token + "\"", context);
  }
  return v;
}

// Strict positive-integer parse: the whole token must be digits and the value
// must fit an int. Overflow and junk fail with a clear message instead of a
// raw exception or silent truncation (std::stoi throws, std::atoi returns 0).
int ParseCount(const std::string& token, const std::string& what, const std::string& context) {
  int v = 0;
  const char* begin = token.c_str();
  const auto [ptr, ec] = std::from_chars(begin, begin + token.size(), v);
  if (ec == std::errc::result_out_of_range) {
    Fail(what + " out of range: \"" + token + "\"", context);
  }
  if (ec != std::errc() || ptr != begin + token.size() || token.empty()) {
    Fail("expected a count for " + what + ", got \"" + token + "\"", context);
  }
  if (v <= 0) {
    Fail(what + " must be positive, got \"" + token + "\"", context);
  }
  return v;
}

// Parses a "node<index>" reference (0-based) as used by rack and link
// statements. Range checking against the declared node list happens in
// Validate, so references may precede the node declarations.
int ParseNodeRef(const std::string& token, const std::string& context) {
  if (token.rfind("node", 0) != 0 || token.size() == 4) {
    Fail("expected node<index>, got \"" + token + "\"", context);
  }
  const std::string digits = token.substr(4);
  int v = 0;
  const char* begin = digits.c_str();
  const auto [ptr, ec] = std::from_chars(begin, begin + digits.size(), v);
  if (ec != std::errc() || ptr != begin + digits.size() || v < 0) {
    Fail("expected node<index>, got \"" + token + "\"", context);
  }
  return v;
}

std::vector<std::string> Tokenize(const std::string& statement) {
  std::vector<std::string> tokens;
  std::istringstream in(statement);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

// Splits "key=value"; returns false when `token` has no '='.
bool SplitKeyValue(const std::string& token, std::string* key, std::string* value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) {
    return false;
  }
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

// True for the paper classes' single code letters (V/R/G/Q). Node
// declarations accept only these letters besides the spec's own class names:
// a declared class's display code is assigned per cluster.
bool IsBuiltinCodeLetter(const std::string& type) {
  return type.size() == 1 &&
         (type == "V" || type == "R" || type == "G" || type == "Q");
}

// A declared class name is a nonempty run of [A-Za-z0-9_.-] that is not a
// bare V/R/G/Q (which node declarations read as the built-in class).
bool ValidClassName(const std::string& name) {
  return !name.empty() && !IsBuiltinCodeLetter(name) &&
         std::all_of(name.begin(), name.end(), [](char c) {
           return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' ||
                  c == '-';
         });
}

// Parses the brace form "{<type>[*<count>],...}" of a mixed-class node.
NodeDecl ParseMixedNode(const std::string& braced, const std::string& context) {
  if (braced.size() < 2 || braced.front() != '{' || braced.back() != '}') {
    Fail("expected node{<type>[*<count>],...}, got \"" + braced + "\"", context);
  }
  const std::string list = braced.substr(1, braced.size() - 2);
  NodeDecl decl;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = std::min(list.find(',', start), list.size());
    std::string term = list.substr(start, comma - start);
    const bool last = comma >= list.size();
    start = comma + 1;
    if (term.empty()) {
      if (last && !decl.groups.empty()) {
        break;  // tolerate a trailing comma
      }
      Fail("empty group in node list", context);
    }
    NodeGroup group;
    const size_t star = term.find('*');
    if (star != std::string::npos) {
      group.count = ParseCount(term.substr(star + 1), "GPU count", context);
      term.resize(star);
    }
    if (term.empty()) {
      Fail("missing GPU type before '*'", context);
    }
    group.type = std::move(term);
    decl.groups.push_back(std::move(group));
    if (last) {
      break;
    }
  }
  if (decl.groups.empty()) {
    Fail("node needs at least one GPU group", context);
  }
  return decl;
}

// Parses the classic "<count>x<type>" / bare-type node argument.
NodeDecl ParseHomogeneousNode(const std::string& arg, const std::string& context) {
  size_t digits = 0;
  while (digits < arg.size() && std::isdigit(static_cast<unsigned char>(arg[digits])) != 0) {
    ++digits;
  }
  if (digits == 0) {
    return NodeDecl(arg, 1);  // bare type name: one GPU
  }
  if (digits + 1 >= arg.size() || arg[digits] != 'x') {
    Fail("expected <count>x<type>, got \"" + arg + "\"", context);
  }
  const int count = ParseCount(arg.substr(0, digits), "node count", context);
  return NodeDecl(arg.substr(digits + 1), count);
}

// The scalar link-knob statements, shared by Parse and ToString. A knob is
// emitted only when it differs from its default, so specs that never mention
// one stay bit-identical across versions.
struct LinkKnob {
  const char* statement;
  double ClusterSpec::*field;
  double default_value;
};

constexpr LinkKnob kLinkKnobs[] = {
    {"intra_gbps", &ClusterSpec::intra_gbps, PcieLink::kDefaultPeakGBps},
    {"intra_scaling", &ClusterSpec::intra_scaling, PcieLink::kDefaultScaling},
    {"intra_latency_s", &ClusterSpec::intra_latency_s, PcieLink::kDefaultLatency},
    {"inter_gbits", &ClusterSpec::inter_gbits, InfinibandLink::kDefaultRawGbits},
    {"inter_efficiency", &ClusterSpec::inter_efficiency, InfinibandLink::kDefaultEfficiency},
    {"inter_intercept_s", &ClusterSpec::inter_intercept_s, InfinibandLink::kDefaultIntercept},
};

// The optional cross-rack knobs: unset inherits the matching inter_* value,
// so there is no default to compare against — emitted whenever set.
struct CrossRackKnob {
  const char* statement;
  std::optional<double> ClusterSpec::*field;
};

constexpr CrossRackKnob kCrossRackKnobs[] = {
    {"cross_rack_gbits", &ClusterSpec::cross_rack_gbits},
    {"cross_rack_efficiency", &ClusterSpec::cross_rack_efficiency},
    {"cross_rack_intercept_s", &ClusterSpec::cross_rack_intercept_s},
};

// Parses "rack <name> { node0 node1 ... }"; the braces may be glued to their
// neighbors ("rack r0 {node0 node1}"), so the statement is re-joined and
// split on the braces before the member list is tokenized.
RackDecl ParseRack(const std::vector<std::string>& tokens, const std::string& context) {
  std::string joined;
  for (size_t t = 1; t < tokens.size(); ++t) {
    if (t > 1) {
      joined.push_back(' ');
    }
    joined += tokens[t];
  }
  const size_t open = joined.find('{');
  const size_t close = joined.rfind('}');
  if (open == std::string::npos || close == std::string::npos || close < open ||
      close + 1 != joined.size() || joined.find('{', open + 1) != std::string::npos ||
      joined.find('}') != close) {
    Fail("expected rack <name> { node<i> ... }", context);
  }
  RackDecl rack;
  for (const std::string& token : Tokenize(joined.substr(0, open))) {
    if (!rack.name.empty()) {
      Fail("rack takes exactly one name", context);
    }
    rack.name = token;
  }
  if (rack.name.empty()) {
    Fail("rack needs a name", context);
  }
  for (const std::string& token : Tokenize(joined.substr(open + 1, close - open - 1))) {
    rack.nodes.push_back(ParseNodeRef(token, context));
  }
  if (rack.nodes.empty()) {
    Fail("rack " + rack.name + " needs at least one node", context);
  }
  return rack;
}

// Parses "link node<a><->node<b> <key> <value> ..." with keys gbits /
// efficiency / intercept_s; the pair is canonicalized to node_a < node_b.
LinkOverrideDecl ParseLinkOverride(const std::vector<std::string>& tokens,
                                   const std::string& context) {
  if (tokens.size() < 4 || tokens.size() % 2 != 0) {
    Fail("expected link node<a><->node<b> <key> <value> ...", context);
  }
  const std::string& pair = tokens[1];
  const size_t arrow = pair.find("<->");
  if (arrow == std::string::npos) {
    Fail("expected node<a><->node<b>, got \"" + pair + "\"", context);
  }
  LinkOverrideDecl decl;
  decl.node_a = ParseNodeRef(pair.substr(0, arrow), context);
  decl.node_b = ParseNodeRef(pair.substr(arrow + 3), context);
  if (decl.node_a > decl.node_b) {
    std::swap(decl.node_a, decl.node_b);
  }
  for (size_t t = 2; t + 1 < tokens.size(); t += 2) {
    const std::string& key = tokens[t];
    const double value = ParseDouble(tokens[t + 1], context);
    std::optional<double>* field = nullptr;
    if (key == "gbits") {
      field = &decl.gbits;
    } else if (key == "efficiency") {
      field = &decl.efficiency;
    } else if (key == "intercept_s") {
      field = &decl.intercept_s;
    } else {
      Fail("unknown link attribute \"" + key + "\"", context);
    }
    if (field->has_value()) {
      Fail("duplicate link attribute \"" + key + "\"", context);
    }
    *field = value;
  }
  return decl;
}

// Declared rack index of `node`, or -1 when the node is not named by any
// rack (an implicit single-node rack of its own).
int DeclaredRackOf(const ClusterSpec& spec, int node) {
  for (size_t r = 0; r < spec.racks.size(); ++r) {
    for (int member : spec.racks[r].nodes) {
      if (member == node) {
        return static_cast<int>(r);
      }
    }
  }
  return -1;
}

}  // namespace

int64_t NodeDecl::TotalCount() const {
  int64_t total = 0;
  for (const NodeGroup& group : groups) {
    total += group.count;
  }
  return total;
}

bool operator==(const GpuClassDecl& a, const GpuClassDecl& b) {
  return a.name == b.name && a.tflops == b.tflops && a.memory_gib == b.memory_gib &&
         a.code == b.code;
}

bool operator==(const NodeGroup& a, const NodeGroup& b) {
  return a.type == b.type && a.count == b.count;
}

bool operator==(const NodeDecl& a, const NodeDecl& b) { return a.groups == b.groups; }

bool operator==(const RackDecl& a, const RackDecl& b) {
  return a.name == b.name && a.nodes == b.nodes;
}

bool operator==(const LinkOverrideDecl& a, const LinkOverrideDecl& b) {
  return a.node_a == b.node_a && a.node_b == b.node_b && a.gbits == b.gbits &&
         a.efficiency == b.efficiency && a.intercept_s == b.intercept_s;
}

bool operator==(const ClusterSpec& a, const ClusterSpec& b) {
  if (a.name != b.name || a.gpu_classes != b.gpu_classes || a.nodes != b.nodes ||
      a.racks != b.racks || a.link_overrides != b.link_overrides) {
    return false;
  }
  for (const LinkKnob& knob : kLinkKnobs) {
    if (a.*(knob.field) != b.*(knob.field)) {
      return false;
    }
  }
  for (const CrossRackKnob& knob : kCrossRackKnobs) {
    if (a.*(knob.field) != b.*(knob.field)) {
      return false;
    }
  }
  return true;
}

ClusterSpec& ClusterSpec::Named(std::string label) {
  name = std::move(label);
  return *this;
}

ClusterSpec& ClusterSpec::AddGpuClass(std::string class_name, double tflops, double memory_gib,
                                      char code) {
  gpu_classes.push_back(GpuClassDecl{std::move(class_name), tflops, memory_gib, code});
  return *this;
}

ClusterSpec& ClusterSpec::AddNode(std::string type, int count) {
  nodes.push_back(NodeDecl(std::move(type), count));
  return *this;
}

ClusterSpec& ClusterSpec::AddMixedNode(std::vector<NodeGroup> groups) {
  nodes.push_back(NodeDecl(std::move(groups)));
  return *this;
}

ClusterSpec& ClusterSpec::IntraGbps(double gbps) {
  intra_gbps = gbps;
  return *this;
}

ClusterSpec& ClusterSpec::IntraLatencyS(double latency_s) {
  intra_latency_s = latency_s;
  return *this;
}

ClusterSpec& ClusterSpec::InterGbits(double gbits) {
  inter_gbits = gbits;
  return *this;
}

ClusterSpec& ClusterSpec::InterInterceptS(double intercept_s) {
  inter_intercept_s = intercept_s;
  return *this;
}

ClusterSpec& ClusterSpec::AddRack(std::string rack_name, std::vector<int> node_indices) {
  racks.push_back(RackDecl{std::move(rack_name), std::move(node_indices)});
  return *this;
}

ClusterSpec& ClusterSpec::CrossRackGbits(double gbits) {
  cross_rack_gbits = gbits;
  return *this;
}

ClusterSpec& ClusterSpec::OverrideLink(int node_a, int node_b, std::optional<double> gbits,
                                       std::optional<double> efficiency,
                                       std::optional<double> intercept_s) {
  LinkOverrideDecl decl;
  decl.node_a = std::min(node_a, node_b);
  decl.node_b = std::max(node_a, node_b);
  decl.gbits = gbits;
  decl.efficiency = efficiency;
  decl.intercept_s = intercept_s;
  link_overrides.push_back(std::move(decl));
  return *this;
}

ClusterSpec ClusterSpec::Parse(const std::string& text) {
  ClusterSpec spec;
  std::string statement;
  std::vector<std::string> statements;
  for (size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : '\n';
    if (c == '#') {  // comment to end of line
      while (i < text.size() && text[i] != '\n') {
        ++i;
      }
      statements.push_back(statement);
      statement.clear();
    } else if (c == '\n' || c == ';') {
      statements.push_back(statement);
      statement.clear();
    } else {
      statement.push_back(c);
    }
  }

  for (const std::string& raw : statements) {
    std::vector<std::string> tokens = Tokenize(raw);
    if (tokens.empty()) {
      continue;
    }
    // "node{...}" binds the brace list to the verb without whitespace; split
    // it so both spellings ("node{A*2,B}" and "node {A*2, B}") parse alike.
    if (tokens[0].size() > 4 && tokens[0].rfind("node{", 0) == 0) {
      const std::string braced = tokens[0].substr(4);
      tokens[0] = "node";
      tokens.insert(tokens.begin() + 1, braced);
    }
    const std::string& verb = tokens[0];
    if (verb == "name") {
      if (tokens.size() != 2) {
        Fail("name takes exactly one label", raw);
      }
      spec.name = tokens[1];
    } else if (verb == "gpu") {
      if (tokens.size() < 2) {
        Fail("gpu needs a class name", raw);
      }
      GpuClassDecl decl;
      decl.name = tokens[1];
      for (size_t t = 2; t < tokens.size(); ++t) {
        std::string key;
        std::string value;
        if (!SplitKeyValue(tokens[t], &key, &value)) {
          Fail("expected key=value, got \"" + tokens[t] + "\"", raw);
        }
        if (key == "tflops") {
          decl.tflops = ParseDouble(value, raw);
        } else if (key == "mem") {
          decl.memory_gib = ParseDouble(value, raw);
        } else if (key == "code") {
          if (value.size() != 1) {
            Fail("code must be a single character", raw);
          }
          decl.code = value[0];
        } else {
          Fail("unknown gpu attribute \"" + key + "\"", raw);
        }
      }
      spec.gpu_classes.push_back(std::move(decl));
    } else if (verb == "node") {
      if (tokens.size() < 2) {
        Fail("node takes a <count>x<type> or {<type>[*<count>],...} argument", raw);
      }
      if (tokens[1].front() == '{') {
        // A brace list may have been split over several whitespace-separated
        // tokens ("{A*2, B}"); rejoin them before parsing.
        std::string braced;
        for (size_t t = 1; t < tokens.size(); ++t) {
          braced += tokens[t];
        }
        spec.nodes.push_back(ParseMixedNode(braced, raw));
      } else {
        if (tokens.size() != 2) {
          Fail("node takes exactly one <count>x<type> argument", raw);
        }
        spec.nodes.push_back(ParseHomogeneousNode(tokens[1], raw));
      }
    } else if (verb == "rack") {
      spec.racks.push_back(ParseRack(tokens, raw));
    } else if (verb == "link") {
      spec.link_overrides.push_back(ParseLinkOverride(tokens, raw));
    } else {
      bool known = false;
      for (const LinkKnob& knob : kLinkKnobs) {
        if (verb == knob.statement) {
          if (tokens.size() != 2) {
            Fail(std::string(knob.statement) + " takes exactly one number", raw);
          }
          spec.*(knob.field) = ParseDouble(tokens[1], raw);
          known = true;
          break;
        }
      }
      for (const CrossRackKnob& knob : kCrossRackKnobs) {
        if (verb == knob.statement) {
          if (tokens.size() != 2) {
            Fail(std::string(knob.statement) + " takes exactly one number", raw);
          }
          spec.*(knob.field) = ParseDouble(tokens[1], raw);
          known = true;
          break;
        }
      }
      if (!known) {
        Fail("unknown statement \"" + verb + "\"", raw);
      }
    }
  }
  spec.Validate();
  return spec;
}

ClusterSpec ClusterSpec::PaperTestbed() {
  ClusterSpec spec;
  spec.Named("paper-testbed");
  for (const char* code : {"V", "R", "G", "Q"}) {
    spec.AddNode(code, 4);
  }
  return spec;
}

std::string ClusterSpec::ToString() const {
  std::ostringstream os;
  bool first = true;
  const auto statement = [&]() -> std::ostream& {
    if (!first) {
      os << "; ";
    }
    first = false;
    return os;
  };
  if (!name.empty()) {
    statement() << "name " << name;
  }
  for (const GpuClassDecl& decl : gpu_classes) {
    statement() << "gpu " << decl.name << " tflops=" << FormatDouble(decl.tflops)
                << " mem=" << FormatDouble(decl.memory_gib);
    if (decl.code != '\0') {
      os << " code=" << decl.code;
    }
  }
  for (const NodeDecl& node : nodes) {
    if (node.mixed()) {
      statement() << "node{";
      for (size_t g = 0; g < node.groups.size(); ++g) {
        if (g > 0) {
          os << ',';
        }
        os << node.groups[g].type;
        if (node.groups[g].count != 1) {
          os << '*' << node.groups[g].count;
        }
      }
      os << '}';
    } else {
      statement() << "node " << node.groups.front().count << 'x' << node.groups.front().type;
    }
  }
  for (const RackDecl& rack : racks) {
    statement() << "rack " << rack.name << " {";
    for (int node : rack.nodes) {
      os << " node" << node;
    }
    os << " }";
  }
  for (const LinkKnob& knob : kLinkKnobs) {
    if (this->*(knob.field) != knob.default_value) {
      statement() << knob.statement << ' ' << FormatDouble(this->*(knob.field));
    }
  }
  for (const CrossRackKnob& knob : kCrossRackKnobs) {
    if ((this->*(knob.field)).has_value()) {
      statement() << knob.statement << ' ' << FormatDouble(*(this->*(knob.field)));
    }
  }
  for (const LinkOverrideDecl& decl : link_overrides) {
    statement() << "link node" << decl.node_a << "<->node" << decl.node_b;
    if (decl.gbits.has_value()) {
      os << " gbits " << FormatDouble(*decl.gbits);
    }
    if (decl.efficiency.has_value()) {
      os << " efficiency " << FormatDouble(*decl.efficiency);
    }
    if (decl.intercept_s.has_value()) {
      os << " intercept_s " << FormatDouble(*decl.intercept_s);
    }
  }
  return os.str();
}

void ClusterSpec::Validate() const {
  // The name is re-emitted as a bare ToString() token, so it must survive the
  // round trip: no whitespace, statement separators, or comment markers.
  if (name.find_first_of(" \t\n;#") != std::string::npos) {
    Fail("name \"" + name + "\" must not contain whitespace, ';', or '#'", "");
  }
  // Before the quadratic duplicate-name check below (see kMaxGpuClasses).
  if (gpu_classes.size() > static_cast<size_t>(kMaxGpuClasses)) {
    Fail(std::to_string(gpu_classes.size()) + " GPU classes exceed the limit of " +
             std::to_string(kMaxGpuClasses),
         "");
  }
  for (size_t i = 0; i < gpu_classes.size(); ++i) {
    const GpuClassDecl& decl = gpu_classes[i];
    if (!ValidClassName(decl.name)) {
      Fail("invalid GPU class name \"" + decl.name +
               "\" (expected [A-Za-z0-9_.-], not a bare V/R/G/Q)",
           "");
    }
    // NaN passes a naive `<= 0` check and would silently poison every
    // simulated number (and break the Parse(ToString()) round trip, since
    // NaN != NaN), so the numbers must be finite too.
    if (!std::isfinite(decl.tflops) || decl.tflops <= 0.0) {
      Fail("GPU class " + decl.name + " needs finite tflops > 0", "");
    }
    if (!std::isfinite(decl.memory_gib) || decl.memory_gib <= 0.0) {
      Fail("GPU class " + decl.name + " needs finite mem > 0", "");
    }
    // The code is re-emitted as a "code=<c>" token, so like the name it must
    // survive the text round trip.
    if (decl.code != '\0' && std::isgraph(static_cast<unsigned char>(decl.code)) == 0) {
      Fail("GPU class " + decl.name + " has an unprintable or whitespace code", "");
    }
    if (decl.code == ';' || decl.code == '#' || decl.code == '=') {
      Fail("GPU class " + decl.name + " code must not be ';', '#', or '='", "");
    }
    for (size_t j = 0; j < i; ++j) {
      if (gpu_classes[j].name == decl.name) {
        Fail("duplicate GPU class \"" + decl.name + "\"", "");
      }
    }
  }
  if (nodes.empty()) {
    Fail("at least one node is required", "");
  }
  if (nodes.size() > static_cast<size_t>(kMaxNodes)) {
    Fail(std::to_string(nodes.size()) + " nodes exceed the limit of " +
             std::to_string(kMaxNodes),
         "");
  }
  int64_t total_gpus = 0;
  for (const NodeDecl& node : nodes) {
    if (node.groups.empty()) {
      Fail("a node needs at least one GPU group", "");
    }
    for (const NodeGroup& group : node.groups) {
      if (group.count <= 0) {
        Fail("node group of type " + group.type + " must hold at least one GPU", "");
      }
      // Group types are re-emitted inside "node{...}" tokens, so they must
      // survive the round trip unambiguously.
      if (group.type.empty() ||
          group.type.find_first_of(" \t\n;#{},*") != std::string::npos) {
        Fail("GPU type \"" + group.type + "\" must not contain whitespace or ';#{},*'", "");
      }
      bool declared = false;
      for (const GpuClassDecl& decl : gpu_classes) {
        declared = declared || decl.name == group.type;
      }
      if (!declared && !IsBuiltinCodeLetter(group.type)) {
        Fail("unknown GPU type \"" + group.type + "\"", "");
      }
    }
    total_gpus += node.TotalCount();
  }
  if (total_gpus > kMaxGpus) {
    Fail(std::to_string(total_gpus) + " GPUs exceed the limit of " + std::to_string(kMaxGpus),
         "");
  }
  const int num_nodes = static_cast<int>(nodes.size());
  std::vector<int> racked(nodes.size(), 0);
  for (size_t r = 0; r < racks.size(); ++r) {
    const RackDecl& rack = racks[r];
    // Rack names are re-emitted as bare tokens inside "rack <name> { ... }",
    // so like cluster names they must survive the text round trip.
    if (rack.name.empty() || rack.name.find_first_of(" \t\n;#{}") != std::string::npos) {
      Fail("rack name \"" + rack.name + "\" must not be empty or contain whitespace or ';#{}'",
           "");
    }
    for (size_t j = 0; j < r; ++j) {
      if (racks[j].name == rack.name) {
        Fail("duplicate rack \"" + rack.name + "\"", "");
      }
    }
    if (rack.nodes.empty()) {
      Fail("rack " + rack.name + " needs at least one node", "");
    }
    for (int node : rack.nodes) {
      if (node < 0 || node >= num_nodes) {
        Fail("rack " + rack.name + " names node" + std::to_string(node) +
                 ", but the spec declares " + std::to_string(num_nodes) + " nodes",
             "");
      }
      if (racked[static_cast<size_t>(node)]++ != 0) {
        Fail("node" + std::to_string(node) + " belongs to more than one rack", "");
      }
    }
  }
  for (const CrossRackKnob& knob : kCrossRackKnobs) {
    if ((this->*(knob.field)).has_value() && racks.empty()) {
      Fail(std::string(knob.statement) + " needs at least one rack declaration", "");
    }
  }
  if (cross_rack_gbits.has_value() &&
      (!std::isfinite(*cross_rack_gbits) || *cross_rack_gbits <= 0.0)) {
    Fail("cross_rack_gbits must be finite and positive", "");
  }
  if (cross_rack_efficiency.has_value() &&
      (!std::isfinite(*cross_rack_efficiency) || *cross_rack_efficiency <= 0.0 ||
       *cross_rack_efficiency > 1.0)) {
    Fail("cross_rack_efficiency must be in (0, 1]", "");
  }
  if (cross_rack_intercept_s.has_value() &&
      (!std::isfinite(*cross_rack_intercept_s) || *cross_rack_intercept_s < 0.0)) {
    Fail("cross_rack_intercept_s must be finite and non-negative", "");
  }
  for (size_t i = 0; i < link_overrides.size(); ++i) {
    const LinkOverrideDecl& decl = link_overrides[i];
    if (decl.node_a < 0 || decl.node_b >= num_nodes || decl.node_a >= decl.node_b) {
      Fail("link override needs two distinct in-range nodes, got node" +
               std::to_string(decl.node_a) + "<->node" + std::to_string(decl.node_b),
           "");
    }
    if (!decl.gbits.has_value() && !decl.efficiency.has_value() &&
        !decl.intercept_s.has_value()) {
      Fail("link override node" + std::to_string(decl.node_a) + "<->node" +
               std::to_string(decl.node_b) + " sets no attribute",
           "");
    }
    if (decl.gbits.has_value() && (!std::isfinite(*decl.gbits) || *decl.gbits <= 0.0)) {
      Fail("link override gbits must be finite and positive", "");
    }
    if (decl.efficiency.has_value() &&
        (!std::isfinite(*decl.efficiency) || *decl.efficiency <= 0.0 ||
         *decl.efficiency > 1.0)) {
      Fail("link override efficiency must be in (0, 1]", "");
    }
    if (decl.intercept_s.has_value() &&
        (!std::isfinite(*decl.intercept_s) || *decl.intercept_s < 0.0)) {
      Fail("link override intercept_s must be finite and non-negative", "");
    }
    for (size_t j = 0; j < i; ++j) {
      if (link_overrides[j].node_a == decl.node_a && link_overrides[j].node_b == decl.node_b) {
        Fail("duplicate link override for node" + std::to_string(decl.node_a) + "<->node" +
                 std::to_string(decl.node_b),
             "");
      }
    }
  }
  // Like the class numbers, every link knob must be finite: NaN slips past
  // one-sided comparisons and infinities turn into inf transfer times.
  for (const LinkKnob& knob : kLinkKnobs) {
    if (!std::isfinite(this->*(knob.field))) {
      Fail(std::string(knob.statement) + " must be finite", "");
    }
  }
  if (intra_gbps <= 0.0) {
    Fail("intra_gbps must be positive", "");
  }
  if (intra_scaling <= 0.0 || intra_scaling > 1.0) {
    Fail("intra_scaling must be in (0, 1]", "");
  }
  if (intra_latency_s < 0.0) {
    Fail("intra_latency_s must be non-negative", "");
  }
  if (inter_gbits <= 0.0) {
    Fail("inter_gbits must be positive", "");
  }
  if (inter_efficiency <= 0.0 || inter_efficiency > 1.0) {
    Fail("inter_efficiency must be in (0, 1]", "");
  }
  if (inter_intercept_s < 0.0) {
    Fail("inter_intercept_s must be non-negative", "");
  }
}

InfinibandLink ClusterSpec::InterLinkBetween(int node_a, int node_b) const {
  const int num_nodes = static_cast<int>(nodes.size());
  if (node_a < 0 || node_a >= num_nodes || node_b < 0 || node_b >= num_nodes) {
    throw std::invalid_argument("cluster spec: InterLinkBetween node index out of range");
  }
  double gbits = inter_gbits;
  double efficiency = inter_efficiency;
  double intercept_s = inter_intercept_s;
  if (!racks.empty() && node_a != node_b) {
    // An un-racked node is its own implicit rack, so any pair not sharing a
    // declared rack crosses racks.
    const int rack_a = DeclaredRackOf(*this, node_a);
    const int rack_b = DeclaredRackOf(*this, node_b);
    if (rack_a < 0 || rack_b < 0 || rack_a != rack_b) {
      gbits = cross_rack_gbits.value_or(gbits);
      efficiency = cross_rack_efficiency.value_or(efficiency);
      intercept_s = cross_rack_intercept_s.value_or(intercept_s);
    }
  }
  const int lo = std::min(node_a, node_b);
  const int hi = std::max(node_a, node_b);
  for (const LinkOverrideDecl& decl : link_overrides) {
    if (decl.node_a == lo && decl.node_b == hi) {
      gbits = decl.gbits.value_or(gbits);
      efficiency = decl.efficiency.value_or(efficiency);
      intercept_s = decl.intercept_s.value_or(intercept_s);
      break;
    }
  }
  return InfinibandLink(gbits, efficiency, intercept_s);
}

Cluster ClusterSpec::Build() const {
  Validate();
  // Declared classes join the cluster's table in order of first use in the
  // node list, which is the class order tie-breaks read (GpuSpec::order).
  auto declared = std::make_shared<GpuClassTable>();
  std::vector<std::optional<GpuType>> declared_types(gpu_classes.size());
  const auto resolve = [&](const std::string& type) {
    for (size_t c = 0; c < gpu_classes.size(); ++c) {
      const GpuClassDecl& decl = gpu_classes[c];
      if (decl.name == type) {
        if (!declared_types[c].has_value()) {
          declared_types[c] = declared->Add(decl.name, decl.tflops, decl.memory_gib, decl.code);
        }
        return *declared_types[c];
      }
    }
    return TypeFromCode(type[0]);  // Validate admits only V/R/G/Q besides declared names
  };
  std::vector<std::vector<GpuType>> node_gpus;
  node_gpus.reserve(nodes.size());
  for (const NodeDecl& node : nodes) {
    std::vector<GpuType> types;
    types.reserve(static_cast<size_t>(node.TotalCount()));
    for (const NodeGroup& group : node.groups) {
      types.insert(types.end(), static_cast<size_t>(group.count), resolve(group.type));
    }
    node_gpus.push_back(std::move(types));
  }
  Cluster cluster(node_gpus, IntraLink(), InterLink(), name, std::move(declared));
  cluster.set_spec_text(ToString());

  if (!racks.empty() || !link_overrides.empty()) {
    const int h = static_cast<int>(nodes.size());
    std::vector<int> rack_of;
    if (!racks.empty()) {
      rack_of.assign(static_cast<size_t>(h), -1);
      for (size_t r = 0; r < racks.size(); ++r) {
        for (int node : racks[r].nodes) {
          rack_of[static_cast<size_t>(node)] = static_cast<int>(r);
        }
      }
      // Un-racked nodes form implicit single-node racks after the declared
      // ones, in node order.
      int next_rack = static_cast<int>(racks.size());
      for (int& rack : rack_of) {
        if (rack < 0) {
          rack = next_rack++;
        }
      }
    }
    // Resolve every pair; pairs identical to the shared inter link keep the
    // -1 default, so a spec whose racks/overrides change nothing stays a
    // uniform fabric (bit-identical links, partitions, and cache keys).
    const InfinibandLink base = InterLink();
    std::vector<InfinibandLink> pair_links;
    std::vector<int> pair_index(static_cast<size_t>(h) * static_cast<size_t>(h), -1);
    bool any_custom = false;
    for (int i = 0; i < h; ++i) {
      for (int j = i + 1; j < h; ++j) {
        const InfinibandLink link = InterLinkBetween(i, j);
        if (link.EffectiveBandwidth() == base.EffectiveBandwidth() &&
            link.intercept_s() == base.intercept_s()) {
          continue;
        }
        int index = -1;
        for (size_t k = 0; k < pair_links.size(); ++k) {
          if (pair_links[k].EffectiveBandwidth() == link.EffectiveBandwidth() &&
              pair_links[k].intercept_s() == link.intercept_s()) {
            index = static_cast<int>(k);
            break;
          }
        }
        if (index < 0) {
          index = static_cast<int>(pair_links.size());
          pair_links.push_back(link);
        }
        pair_index[static_cast<size_t>(i) * static_cast<size_t>(h) + static_cast<size_t>(j)] =
            index;
        pair_index[static_cast<size_t>(j) * static_cast<size_t>(h) + static_cast<size_t>(i)] =
            index;
        any_custom = true;
      }
    }
    if (!any_custom) {
      pair_links.clear();
      pair_index.clear();
    }
    cluster.SetLinkTopology(std::move(rack_of), std::move(pair_links), std::move(pair_index));
  }
  return cluster;
}

}  // namespace hetpipe::hw
