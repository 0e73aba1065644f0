#!/usr/bin/env bash
# Repo lint: style-and-safety rules that are cheaper to grep than to encode in
# clang-tidy, run as a CI job (and runnable locally from anywhere in the
# repo). Every rule prints the offending lines and the script exits non-zero
# if any rule fired.
#
# Rules:
#   1. No raw numeric parsing (atoi/stoi/strtol family) outside the
#      runner::Parse* helpers (src/runner/cli.cc): those calls silently map
#      junk to 0 or throw; flag parsing must reject junk loudly.
#   2. No std::endl in src/ or bench/: it flushes on every use, which is
#      measurable in the sweep hot paths; use '\n'.
#   3. Every TODO names a ROADMAP item (TODO(ROADMAP: ...)), so stale intent
#      can't hide in the tree.
#   4. Every src/ header starts its guard with #pragma once; no #ifndef-style
#      include guards (one convention, not two).
#   5. src/runner, src/serve and src/partition use the annotated util::Mutex
#      wrappers, not
#      raw std::mutex / std::shared_mutex / std::condition_variable —
#      otherwise -Wthread-safety has nothing to check (src/util/mutex.h is
#      the one place allowed to touch the native types).
#   6. bench/ binaries never write results through a raw std::ofstream: rows
#      go through the runner sink layer (--out/--json/--csv), where the
#      schema, the store, and sweep_query can see them. Deliberate non-result
#      files carry '// lint: ofstream-allowed (<why>)' on the line.
set -u
cd "$(dirname "$0")/.."

failures=0

fail() {
  echo "lint: $1" >&2
  shift
  printf '%s\n' "$@" >&2
  echo >&2
  failures=$((failures + 1))
}

# Strips // comments so prose *about* atoi does not trip rule 1 or 5.
strip_comments() {
  sed 's|//.*||'
}

# ---- Rule 1: raw numeric parsing ----
raw_parse=$(grep -rn --include='*.cc' --include='*.cpp' --include='*.h' \
                 -E '\b(atoi|atol|atoll|strtol|strtoul|strtoll|stoi|stol|stoll|stoul|stoull|stof|stod|stold)\s*\(' \
                 src bench examples \
              | grep -v '^src/runner/cli\.cc:' \
              | while IFS= read -r line; do
                  code=${line#*:*:}
                  stripped=$(printf '%s' "$code" | strip_comments)
                  printf '%s' "$stripped" | grep -qE '\b(atoi|atol|atoll|strtol|strtoul|strtoll|stoi|stol|stoll|stoul|stoull|stof|stod|stold)\s*\(' \
                    && printf '%s\n' "$line"
                done)
if [ -n "$raw_parse" ]; then
  fail "raw numeric parsing outside runner::Parse* helpers (use runner::ParseIntFlag / hw parsing):" "$raw_parse"
fi

# ---- Rule 2: std::endl in hot paths ----
endl=$(grep -rn --include='*.cc' --include='*.cpp' --include='*.h' \
            'std::endl' src bench || true)
if [ -n "$endl" ]; then
  fail "std::endl in src/ or bench/ (flushes every line; use '\\n'):" "$endl"
fi

# ---- Rule 3: TODOs must reference ROADMAP ----
todos=$(grep -rn --include='*.cc' --include='*.cpp' --include='*.h' --include='*.sh' \
             'TODO' src bench examples tests scripts \
          | grep -v '^scripts/lint\.sh:' \
          | grep -v 'TODO(ROADMAP:' || true)
if [ -n "$todos" ]; then
  fail "TODO without a ROADMAP reference (write TODO(ROADMAP: <item>)):" "$todos"
fi

# ---- Rule 4: header guards ----
guards=""
while IFS= read -r header; do
  if ! head -n1 "$header" | grep -q '#pragma once'; then
    guards="$guards$header: first line is not #pragma once
"
  fi
  ifndef=$(grep -n '#ifndef .*_H_\?$' "$header" || true)
  if [ -n "$ifndef" ]; then
    guards="$guards$header: uses an #ifndef include guard alongside the #pragma once convention
"
  fi
done < <(find src -name '*.h')
if [ -n "$guards" ]; then
  fail "header guard convention (#pragma once on line 1, no #ifndef guards):" "$guards"
fi

# ---- Rule 5: raw synchronization primitives in concurrent subsystems ----
raw_sync=$(grep -rn --include='*.cc' --include='*.h' \
                -E 'std::(mutex|shared_mutex|condition_variable)\b' \
                src/runner src/serve src/partition \
             | while IFS= read -r line; do
                 code=${line#*:*:}
                 stripped=$(printf '%s' "$code" | strip_comments)
                 printf '%s' "$stripped" | grep -qE 'std::(mutex|shared_mutex|condition_variable)\b' \
                   && printf '%s\n' "$line"
               done)
if [ -n "$raw_sync" ]; then
  fail "raw std synchronization in src/runner, src/serve or src/partition (use the annotated util::Mutex family from src/util/mutex.h):" "$raw_sync"
fi

# ---- Rule 6: result writing in bench/ goes through the sink layer ----
# A bench opening its own std::ofstream for rows bypasses the schema,
# --out dispatch, and the store — results written that way can't be queried
# or round-tripped. Non-result files (expectation dumps, measurement
# targets) carry an explicit marker comment on the same line:
#   // lint: ofstream-allowed (<why>)
raw_ofstream=$(grep -rn --include='*.cc' 'std::ofstream' bench \
                | grep -v 'lint: ofstream-allowed' \
                | while IFS= read -r line; do
                    code=${line#*:*:}
                    stripped=$(printf '%s' "$code" | strip_comments)
                    printf '%s' "$stripped" | grep -q 'std::ofstream' \
                      && printf '%s\n' "$line"
                  done)
if [ -n "$raw_ofstream" ]; then
  fail "raw std::ofstream result writing in bench/ (emit rows via runner::BenchArgs --out/--json/--csv sinks, or mark the line '// lint: ofstream-allowed (<why>)'):" "$raw_ofstream"
fi

if [ "$failures" -ne 0 ]; then
  echo "lint: $failures rule(s) failed" >&2
  exit 1
fi
echo "lint: all rules pass"
