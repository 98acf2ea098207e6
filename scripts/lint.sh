#!/usr/bin/env bash
# Repo lint entry point — a thin wrapper over the cflint analyzer
# (tools/cflint), which replaced the grep pipeline that used to live here.
# cflint lexes each file (comment/string/raw-string aware) and runs the
# scope-aware rules R1-R15; see DESIGN.md §12 for the catalog and rationale.
#
# Usage:
#   scripts/lint.sh                 lint the repository (exit 0 = clean)
#   scripts/lint.sh --self-test     run the analyzer's hermetic self-test
#   scripts/lint.sh -f json         machine-readable findings
#   scripts/lint.sh path/to/file    lint specific files
#
# The binary is cached in build-tools/ and rebuilt whenever any analyzer
# source is newer, so the wrapper works before CMake has configured (plain
# `scripts/lint.sh` on a fresh clone) and stays in sync afterwards.
set -u

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "${SCRIPT_DIR}")"
TOOL_DIR="${REPO_ROOT}/tools/cflint"
BIN_DIR="${REPO_ROOT}/build-tools"
BIN="${BIN_DIR}/cflint"

CXX_BIN="${CXX:-}"
if [ -z "${CXX_BIN}" ]; then
  for candidate in c++ g++ clang++; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      CXX_BIN="${candidate}"
      break
    fi
  done
fi
if [ -z "${CXX_BIN}" ]; then
  echo "lint.sh: no C++ compiler found (set CXX)" >&2
  exit 2
fi

needs_build=0
if [ ! -x "${BIN}" ]; then
  needs_build=1
else
  for src in "${TOOL_DIR}"/*.cpp "${TOOL_DIR}"/*.h; do
    if [ "${src}" -nt "${BIN}" ]; then
      needs_build=1
      break
    fi
  done
fi

if [ "${needs_build}" -eq 1 ]; then
  mkdir -p "${BIN_DIR}"
  if ! "${CXX_BIN}" -std=c++20 -O2 -Wall -Wextra \
      -o "${BIN}" "${TOOL_DIR}"/*.cpp; then
    echo "lint.sh: failed to build cflint with ${CXX_BIN}" >&2
    exit 2
  fi
fi

exec "${BIN}" --root "${REPO_ROOT}" "$@"
