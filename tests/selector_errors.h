#pragma once

// Every core::PickGpus error message, pinned byte for byte: one table that
// cluster_spec_test checks through PickGpus and serve_test through
// PlanService's bad_selector responses, whose "error" is the same text.

#include <string>
#include <vector>

namespace hetpipe {

// The declared-class cluster of the table: two declared classes, a mixed
// node and a paper class, so names, declared code letters and Table 1 codes
// all resolve.
inline constexpr const char* kSelectorErrorSpec =
    "gpu BigCard tflops=8.5 mem=32 code=b\n"
    "gpu TinyCard tflops=1.4 mem=11\n"
    "node 2xBigCard\n"
    "node{TinyCard*2,V*1}\n"
    "node 4xV\n";

struct SelectorErrorCase {
  bool spec;             // kSelectorErrorSpec when true, else the paper testbed (VRGQ)
  std::string selector;  // what the request asks for
  std::string message;   // the std::invalid_argument text PickGpus throws
};

inline std::vector<SelectorErrorCase> SelectorErrorCases() {
  return {
      // A count or node that is not a non-negative decimal number.
      {false, "V*x", R"(selector: expected a number for count in "V*x", got "x")"},
      {false, "V*", R"(selector: expected a number for count in "V*", got "")"},
      {false, "V*-1", R"(selector: expected a number for count in "V*-1", got "-1")"},
      {false, "V*2junk", R"(selector: expected a number for count in "V*2junk", got "2junk")"},
      {false, "V*x@1", R"(selector: expected a number for count in "V*x", got "x")"},
      {false, "V@x", R"(selector: expected a number for node in "V@x", got "x")"},
      {false, "V*2@x", R"(selector: expected a number for node in "V*2@x", got "x")"},
      {false, "V@0*2", R"(selector: expected a number for node in "V@0*2", got "0*2")"},
      {false, "V,R@", R"(selector: expected a number for node in "R@", got "")"},
      {true, "BigCard*x", R"(selector: expected a number for count in "BigCard*x", got "x")"},
      {true, "b@x", R"(selector: expected a number for node in "b@x", got "x")"},
      // Numbers past int.
      {false, "V*99999999999",
       R"(selector: number out of range for count in "V*99999999999": "99999999999")"},
      {false, "V@99999999999",
       R"(selector: number out of range for node in "V@99999999999": "99999999999")"},
      {false, "V*-99999999999",
       R"(selector: number out of range for count in "V*-99999999999": "-99999999999")"},
      {true, "TinyCard*2@99999999999",
       R"(selector: number out of range for node in "TinyCard*2@99999999999": "99999999999")"},
      // A zero count.
      {false, "V*0", "selector term V needs a positive count"},
      {false, "V*0@0", "selector term V needs a positive count"},
      {true, "b*0", "selector term b needs a positive count"},
      // A class the cluster has no GPUs of.
      {false, "A100*64", R"(unknown GPU class "A100")"},
      {false, "V,Z", R"(unknown GPU class "Z")"},
      {false, "Z*0", R"(unknown GPU class "Z")"},
      {true, "NoSuchCard", R"(unknown GPU class "NoSuchCard")"},
      {true, "R", R"(unknown GPU class "R")"},
      // No free GPU: by code string, by term and on a node.
      {false, "VVVVV", "cluster has no free GPU matching type V"},
      {false, "VRGQQQQQ", "cluster has no free GPU matching type Q"},
      {true, "bbb", "cluster has no free GPU matching type b"},
      {false, "V*5", R"(cluster has no free GPU matching "V")"},
      {false, "V*3,V*2", R"(cluster has no free GPU matching "V")"},
      {true, "BigCard*3", R"(cluster has no free GPU matching "BigCard")"},
      {false, "V@1", R"(cluster has no free GPU matching "V")"},
      {false, "Q*2@7", R"(cluster has no free GPU matching "Q")"},
      {true, "TinyCard*2@0", R"(cluster has no free GPU matching "TinyCard")"},
      {true, "V*2@1", R"(cluster has no free GPU matching "V")"},
      // Nothing selected.
      {false, ",", "empty GPU selector"},
      {true, ",,", "empty GPU selector"},
  };
}

}  // namespace hetpipe
