#include "rules.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <set>
#include <string>

namespace cflint {

namespace {

// ---------------------------------------------------------------------------
// Path scoping helpers (paths are repo-relative with forward slashes)
// ---------------------------------------------------------------------------

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool contains(const std::string& s, const std::string& sub) {
  return s.find(sub) != std::string::npos;
}

bool is_header(const std::string& path) { return ends_with(path, ".h"); }

/// R9 applies only where iteration order reaches bytes, checkpoints, wire
/// frames or aggregate arithmetic — the determinism-sensitive set.
bool r9_in_scope(const std::string& path) {
  static const std::array<const char*, 12> kScopes = {
      "src/flare/aggregator", "src/flare/robust_aggregator",
      "src/flare/persistor",  "src/flare/messages",
      "src/flare/dxo",        "src/flare/secure_agg",
      "src/flare/observability", "src/nn/state_dict",
      "src/core/bytes",       "src/data/vocab",
      "src/train/reporting",  "src/flare/journal"};
  for (const char* scope : kScopes) {
    if (contains(path, scope)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the token matching the opener at `open` ("(", "{", "[", "<"),
/// or tokens.size() when unbalanced. For "<" a token that cannot appear in
/// a template-argument list (";", "{") aborts the balance — that is how we
/// avoid treating a less-than comparison as an unterminated template list.
std::size_t matching(const std::vector<Token>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  std::string c;
  if (o == "(") c = ")";
  else if (o == "{") c = "}";
  else if (o == "[") c = "]";
  else if (o == "<") c = ">";
  else return toks.size();
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    else if (toks[i].text == c && --depth == 0) return i;
    else if (o == "<" && (toks[i].text == ";" || toks[i].text == "{")) break;
  }
  return toks.size();
}

class RuleRunner {
 public:
  RuleRunner(const FileUnit& file, const std::set<std::string>& nodiscard_fns,
             std::vector<Finding>& out)
      : path_(file.path),
        toks_(file.lx.tokens),
        exemptions_(file.lx.exemptions),
        nodiscard_fns_(nodiscard_fns),
        out_(out) {}

  void run() {
    r1_no_rand();
    r2_no_naked_new_delete();
    r3_no_iostream();
    r4_header_hygiene();
    r5_no_raw_thread();
    r6_no_naked_sleep();
    r7_validator_bypass();
    r8_legacy_logger();
    r9_unordered_iteration();
    r10_blocking_under_lock();
    r11_nodiscard();
    r12_secure_agg_containment();
    r13_durable_writes_only();
    r14_server_via_job_runner();
    r15_isa_code_confined();
  }

 private:
  void flag(int rule, const Token& at, std::string message) {
    auto it = exemptions_.find(rule);
    if (it != exemptions_.end() && it->second.count(at.line)) return;
    out_.push_back({rule, path_, at.line, at.col, std::move(message)});
  }

  const Token* prev(std::size_t i) const {
    return i == 0 ? nullptr : &toks_[i - 1];
  }
  const Token* next(std::size_t i) const {
    return i + 1 < toks_.size() ? &toks_[i + 1] : nullptr;
  }

  // R1: all randomness flows through seeded core::Rng so runs reproduce.
  void r1_no_rand() {
    if (starts_with(path_, "src/core/rng.")) return;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdent || (t.text != "rand" && t.text != "srand")) {
        continue;
      }
      const Token* n = next(i);
      if (n == nullptr || !is_punct(*n, "(")) continue;
      const Token* p = prev(i);
      if (p != nullptr && (is_punct(*p, ".") || is_punct(*p, "->"))) continue;
      if (p != nullptr && is_punct(*p, "::")) {
        // Qualified call: only std::rand / ::rand are the libc one.
        const Token* q = i >= 2 ? &toks_[i - 2] : nullptr;
        if (q != nullptr && q->kind == TokKind::kIdent && q->text != "std") {
          continue;
        }
      }
      flag(1, t, t.text + "() is banned; all randomness goes through seeded "
                 "core::Rng so runs are reproducible");
    }
  }

  // R2: the flare runtime passes ownership across threads; raw owning
  // pointers are how socket- and task-lifetime races start.
  void r2_no_naked_new_delete() {
    if (!starts_with(path_, "src/flare/")) return;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text != "new" && t.text != "delete") continue;
      const Token* p = prev(i);
      if (t.text == "delete" && p != nullptr && is_punct(*p, "=")) {
        continue;  // deleted special member, not a deallocation
      }
      flag(2, t, "naked '" + t.text +
                 "' in src/flare/; use unique_ptr/shared_ptr/containers");
    }
  }

  // R3: only the logging sink talks to std streams.
  void r3_no_iostream() {
    if (starts_with(path_, "src/core/logging.")) return;
    for (const Token& t : toks_) {
      if (t.kind != TokKind::kPreproc) continue;
      if (contains(t.text, "include") && contains(t.text, "<iostream>")) {
        flag(3, t, "#include <iostream> outside src/core/logging.*; log "
                   "through core::Logger / LOG(level)");
      }
    }
  }

  // R4: every src/ header uses #pragma once; legacy #ifndef guards flagged.
  void r4_header_hygiene() {
    if (!is_header(path_)) return;
    bool has_pragma_once = false;
    for (const Token& t : toks_) {
      if (t.kind != TokKind::kPreproc) continue;
      if (contains(t.text, "pragma") && contains(t.text, "once")) {
        has_pragma_once = true;
      }
      if (contains(t.text, "ifndef")) {
        const std::string& s = t.text;
        if (ends_with_guard_macro(s)) {
          flag(4, t, "legacy include guard; this repo uses #pragma once");
        }
      }
    }
    if (!has_pragma_once) {
      Token at{TokKind::kPreproc, "", 1, 1};
      flag(4, at, "header missing #pragma once");
    }
  }

  static bool ends_with_guard_macro(const std::string& directive) {
    // "#ifndef FOO_H" / "_H_" / "_HPP": trim trailing whitespace first.
    std::string s = directive;
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
      s.pop_back();
    }
    return ends_with(s, "_H") || ends_with(s, "_H_") || ends_with(s, "_HPP");
  }

  // R5: parallelism goes through core::parallel_for / core::ThreadPool so
  // the process-wide compute budget stays enforceable. The epoll reactor
  // (src/flare/reactor.*) is sanctioned: its event loop *is* the one
  // designed exception — a single dedicated thread owning every fd, with
  // all real work handed to a core::ThreadPool.
  void r5_no_raw_thread() {
    if (starts_with(path_, "src/core/")) return;
    if (starts_with(path_, "src/flare/reactor.")) return;
    for (std::size_t i = 0; i + 2 < toks_.size(); ++i) {
      if (!is_ident(toks_[i], "std") || !is_punct(toks_[i + 1], "::") ||
          !is_ident(toks_[i + 2], "thread")) {
        continue;
      }
      // std::thread::hardware_concurrency() is member access, not a spawn.
      const Token* after = i + 3 < toks_.size() ? &toks_[i + 3] : nullptr;
      if (after != nullptr && is_punct(*after, "::")) continue;
      flag(5, toks_[i], "raw std::thread outside src/core/; use "
                        "core::parallel_for or core::ThreadPool");
    }
  }

  // R6: blocking waits are retry loops in disguise; they go through
  // core::Backoff so every delay is bounded, jittered and visible.
  void r6_no_naked_sleep() {
    if (starts_with(path_, "src/core/backoff.")) return;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text != "sleep_for" && t.text != "sleep_until" && t.text != "usleep") {
        continue;
      }
      const Token* n = next(i);
      if (n == nullptr || !is_punct(*n, "(")) continue;
      flag(6, t, "naked " + t.text + "() outside src/core/backoff.*; "
                 "delays go through core::Backoff");
    }
  }

  // R7: every contribution passes through UpdateValidator::admit; calling
  // Aggregator::accept directly bypasses screening and telemetry. Raw
  // `::accept(` socket calls are not member calls and do not match.
  void r7_validator_bypass() {
    if (!starts_with(path_, "src/flare/")) return;
    if (ends_with(path_, "validator.cpp")) return;
    for (std::size_t i = 1; i + 1 < toks_.size(); ++i) {
      if (!is_ident(toks_[i], "accept")) continue;
      const Token& p = toks_[i - 1];
      if (!is_punct(p, ".") && !is_punct(p, "->")) continue;
      if (!is_punct(toks_[i + 1], "(")) continue;
      flag(7, toks_[i], "direct Aggregator::accept call; contributions go "
                        "through UpdateValidator::admit");
    }
  }

  // R8: library code logs through the structured event API; the legacy
  // Logger string methods survive only inside src/core/.
  void r8_legacy_logger() {
    if (starts_with(path_, "src/core/")) return;
    for (std::size_t i = 1; i + 1 < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text != "debug" && t.text != "info" && t.text != "warn" &&
          t.text != "error") {
        continue;
      }
      const Token& p = toks_[i - 1];
      if (!is_punct(p, ".") && !is_punct(p, "->")) continue;
      if (!is_punct(toks_[i + 1], "(")) continue;
      flag(8, t, "legacy Logger::" + t.text + "() outside src/core/; use "
                 "LOG(level).msg(...).kv(...)");
    }
  }

  // R9: unordered-container iteration order is a per-process accident; in
  // aggregation/serialization/checkpoint/wire code it silently breaks the
  // bit-identical-runs contract. Membership tests (find/count/insert) are
  // fine; iteration is not.
  void r9_unordered_iteration() {
    if (!r9_in_scope(path_)) return;
    const std::set<std::string> unordered_vars = collect_unordered_vars();
    if (unordered_vars.empty()) return;

    for (std::size_t i = 0; i < toks_.size(); ++i) {
      // (a) range-for over an unordered container.
      if (is_ident(toks_[i], "for") && i + 1 < toks_.size() &&
          is_punct(toks_[i + 1], "(")) {
        const std::size_t close = matching(toks_, i + 1);
        std::size_t colon = toks_.size();
        int depth = 0;
        for (std::size_t j = i + 2; j < close; ++j) {
          if (toks_[j].kind != TokKind::kPunct) continue;
          if (toks_[j].text == "(") ++depth;
          else if (toks_[j].text == ")") --depth;
          else if (toks_[j].text == ":" && depth == 0) { colon = j; break; }
        }
        for (std::size_t j = colon + 1; j < close && j < toks_.size(); ++j) {
          if (toks_[j].kind == TokKind::kIdent &&
              unordered_vars.count(toks_[j].text)) {
            flag(9, toks_[j], "iteration over unordered container '" +
                              toks_[j].text + "' in determinism-sensitive "
                              "code; use std::map/std::set or sort first");
            break;
          }
        }
      }
      // (b) explicit begin() on an unordered container. Keyed on the
      // begin-family only: `m.find(k) != m.end()` is the membership idiom
      // and stays legal; obtaining a *starting* iterator is what starts an
      // order-dependent traversal.
      if (toks_[i].kind == TokKind::kIdent &&
          unordered_vars.count(toks_[i].text) && i + 3 < toks_.size()) {
        const Token& dot = toks_[i + 1];
        const Token& fn = toks_[i + 2];
        if ((is_punct(dot, ".") || is_punct(dot, "->")) &&
            fn.kind == TokKind::kIdent &&
            (fn.text == "begin" || fn.text == "cbegin" || fn.text == "rbegin") &&
            is_punct(toks_[i + 3], "(")) {
          flag(9, fn, "ordered traversal of unordered container '" +
                      toks_[i].text + "' in determinism-sensitive code");
        }
      }
    }
  }

  std::set<std::string> collect_unordered_vars() const {
    std::set<std::string> vars;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text != "unordered_map" && t.text != "unordered_set" &&
          t.text != "unordered_multimap" && t.text != "unordered_multiset") {
        continue;
      }
      std::size_t j = i + 1;
      if (j < toks_.size() && is_punct(toks_[j], "<")) {
        const std::size_t close = matching(toks_, j);
        if (close == toks_.size()) continue;
        j = close + 1;
      }
      // Skip declarator decorations between type and name.
      while (j < toks_.size() &&
             (is_punct(toks_[j], "&") || is_punct(toks_[j], "*") ||
              is_ident(toks_[j], "const"))) {
        ++j;
      }
      if (j < toks_.size() && toks_[j].kind == TokKind::kIdent) {
        vars.insert(toks_[j].text);
      }
    }
    return vars;
  }

  // R10: a blocking transport/sleep call while a lock is held turns one
  // slow peer into a stalled server. Lexical lock-region tracking: a
  // lock_guard/unique_lock/scoped_lock/MutexLock declaration opens a region
  // at its brace depth; `.unlock()` suspends it, `.lock()` resumes it, and
  // the closing brace of the declaring scope ends it.
  void r10_blocking_under_lock() {
    struct Lock {
      std::string var;
      int depth;
      bool active;
    };
    std::vector<Lock> locks;
    int depth = 0;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (is_punct(t, "{")) {
        ++depth;
        continue;
      }
      if (is_punct(t, "}")) {
        --depth;
        while (!locks.empty() && locks.back().depth > depth) locks.pop_back();
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;

      if (t.text == "lock_guard" || t.text == "unique_lock" ||
          t.text == "scoped_lock" || t.text == "MutexLock") {
        std::size_t j = i + 1;
        if (j < toks_.size() && is_punct(toks_[j], "<")) {
          const std::size_t close = matching(toks_, j);
          if (close == toks_.size()) continue;
          j = close + 1;
        }
        if (j + 1 < toks_.size() && toks_[j].kind == TokKind::kIdent &&
            is_punct(toks_[j + 1], "(")) {
          locks.push_back({toks_[j].text, depth, true});
        }
        continue;
      }

      // var.unlock() / var.lock() toggles the innermost matching region.
      if ((t.text == "unlock" || t.text == "lock") && i >= 2 &&
          (is_punct(toks_[i - 1], ".") || is_punct(toks_[i - 1], "->")) &&
          toks_[i - 2].kind == TokKind::kIdent && i + 1 < toks_.size() &&
          is_punct(toks_[i + 1], "(")) {
        for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
          if (it->var == toks_[i - 2].text) {
            it->active = (t.text == "lock");
            break;
          }
        }
        continue;
      }

      const Lock* held = nullptr;
      for (const Lock& l : locks) {
        if (l.active) held = &l;
      }
      if (held == nullptr) continue;

      const bool next_is_call =
          i + 1 < toks_.size() && is_punct(toks_[i + 1], "(");
      if (!next_is_call) continue;

      const bool member = i >= 1 && (is_punct(toks_[i - 1], ".") ||
                                     is_punct(toks_[i - 1], "->"));
      const bool global_scope =
          i >= 1 && is_punct(toks_[i - 1], "::") &&
          (i < 2 || toks_[i - 2].kind != TokKind::kIdent);

      const bool blocking_name =
          t.text == "read_frame" || t.text == "write_frame" ||
          t.text == "sleep_for" || t.text == "sleep_until" ||
          t.text == "usleep" || t.text == "sleep_next" ||
          t.text == "try_again" || t.text == "sleep_ms";
      // The reactor's sockets are all O_NONBLOCK: its global-scope
      // ::send/::recv/::accept/::connect return EAGAIN instead of blocking,
      // so holding a lock across them cannot stall the server. Sleeps and
      // member `.call(` (a full RPC round trip) stay flagged even there.
      const bool reactor_nonblocking =
          starts_with(path_, "src/flare/reactor.");
      const bool blocking_syscall =
          !reactor_nonblocking && global_scope &&
          (t.text == "connect" || t.text == "recv" || t.text == "send" ||
           t.text == "accept");
      const bool blocking_rpc = member && t.text == "call";

      if (blocking_name || blocking_syscall || blocking_rpc) {
        flag(10, t, "blocking call '" + t.text + "(' while lock '" +
                    held->var + "' is held; release the lock before "
                    "transport or sleep calls");
      }
    }
  }

  // R11: a dropped Status/Result is a swallowed failure. (a) the types
  // themselves must be [[nodiscard]] so the compiler enforces use at every
  // call site; (b) the linter additionally flags statement-level discarded
  // calls of known Status/Result-returning functions, which catches files
  // the compiler has not seen yet (e.g. dead configurations).
  void r11_nodiscard() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      const Token& kw = toks_[i];
      if (!is_ident(kw, "struct") && !is_ident(kw, "class")) continue;
      const Token* p = prev(i);
      if (p != nullptr && is_ident(*p, "enum")) continue;
      std::size_t j = i + 1;
      bool has_nodiscard = false;
      while (j + 1 < toks_.size() && is_punct(toks_[j], "[") &&
             is_punct(toks_[j + 1], "[")) {
        const std::size_t close = matching(toks_, j);  // outer ']'
        if (close == toks_.size()) break;
        for (std::size_t k = j; k <= close; ++k) {
          if (is_ident(toks_[k], "nodiscard")) has_nodiscard = true;
        }
        j = close + 1;
      }
      if (j >= toks_.size() || toks_[j].kind != TokKind::kIdent) continue;
      const Token& name = toks_[j];
      if (!ends_with(name.text, "Status") && !ends_with(name.text, "Result")) {
        continue;
      }
      const Token* after = j + 1 < toks_.size() ? &toks_[j + 1] : nullptr;
      const bool is_definition =
          after != nullptr && (is_punct(*after, "{") || is_punct(*after, ":") ||
                               is_ident(*after, "final"));
      if (is_definition && !has_nodiscard) {
        flag(11, name, "type '" + name.text + "' looks like a status/result "
                       "carrier; mark it [[nodiscard]]");
      }
    }

    // (b) statement-level discarded calls of known nodiscard-returning
    // functions: the statement is a pure identifier/member chain ending in
    // the call, and the call's ')' is immediately followed by ';'.
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdent || !nodiscard_fns_.count(t.text)) continue;
      if (!is_punct(toks_[i + 1], "(")) continue;
      const std::size_t close = matching(toks_, i + 1);
      if (close + 1 >= toks_.size() || !is_punct(toks_[close + 1], ";")) {
        continue;
      }
      // Walk back to the statement boundary; everything in between must be
      // part of one call chain (idents, ".", "->", "::").
      bool chain = true;
      std::size_t start = i;
      while (start > 0) {
        const Token& b = toks_[start - 1];
        if (b.kind == TokKind::kIdent || is_punct(b, ".") ||
            is_punct(b, "->") || is_punct(b, "::")) {
          --start;
          continue;
        }
        if (is_punct(b, ";") || is_punct(b, "{") || is_punct(b, "}") ||
            b.kind == TokKind::kPreproc) {
          break;  // clean statement boundary
        }
        chain = false;
        break;
      }
      if (!chain) continue;
      const std::string& first = toks_[start].text;
      if (first == "return" || first == "co_return" || first == "co_yield" ||
          first == "throw" || first == "delete") {
        continue;
      }
      // The chain must actually end at this call: tokens between `start`
      // and `i` are qualifiers/objects only (no second call).
      bool pure = true;
      for (std::size_t k = start; k < i; ++k) {
        if (toks_[k].kind != TokKind::kIdent && !is_punct(toks_[k], ".") &&
            !is_punct(toks_[k], "->") && !is_punct(toks_[k], "::")) {
          pure = false;
          break;
        }
      }
      if (!pure) continue;
      // `SendStatus send_all(...);` — an identifier right before the name
      // means this is a declaration (type then declarator), not a call.
      if (i > start && toks_[i - 1].kind == TokKind::kIdent) continue;
      flag(11, t, "discarded call to '" + t.text + "()' which returns a "
                  "[[nodiscard]] status/result; use the value or cast to "
                  "(void) with a reason");
    }
  }

  // R12: the pairwise-mask secret machinery — the dealer and the pair keys
  // it derives — stays confined to the secure_agg module and the
  // provisioning ceremony that would distribute the keys. Everything else
  // goes through the factory (make_secure_agg_mask_filter) and the
  // MaskRecoveryCapable interface, so no other layer can ever see (or log,
  // or serialize) key material.
  void r12_secure_agg_containment() {
    if (starts_with(path_, "src/flare/secure_agg.")) return;
    if (starts_with(path_, "src/flare/provision.")) return;
    for (const Token& t : toks_) {
      if (t.kind != TokKind::kIdent) continue;
      if (t.text != "SecureAggregationDealer" && t.text != "pair_key") {
        continue;
      }
      flag(12, t, "'" + t.text + "' referenced outside src/flare/secure_agg.* "
                  "and src/flare/provision.*; masking key material is "
                  "confined there — use make_secure_agg_mask_filter and the "
                  "MaskRecoveryCapable interface instead");
    }
  }

  // R13: the durability-critical units — the checkpoint persistor and the
  // round journal — must never write through raw stream/stdio APIs. Every
  // byte they put on disk goes through the core durable-io helpers
  // (core::durable_write, core::Wal), which own the write-temp + fsync +
  // rename dance; a stray ofstream there silently reintroduces the torn
  // checkpoints DESIGN.md §15 exists to rule out. Reads (ifstream/fread)
  // stay legal — only the write path must be crash-safe.
  void r13_durable_writes_only() {
    if (!starts_with(path_, "src/flare/persistor.") &&
        !starts_with(path_, "src/flare/journal.")) {
      return;
    }
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text == "ofstream" || t.text == "FILE") {
        flag(13, t, "raw '" + t.text + "' in durability-critical code; "
                    "write through core::durable_write / core::Wal");
        continue;
      }
      if (t.text == "fopen" || t.text == "fwrite") {
        const Token* n = next(i);
        if (n == nullptr || !is_punct(*n, "(")) continue;
        flag(13, t, t.text + "() in durability-critical code; write through "
                    "core::durable_write / core::Wal");
        continue;
      }
      // Member `.write(` / `->write(`: the ostream/fd write idiom.
      if (t.text == "write" && i >= 1 &&
          (is_punct(toks_[i - 1], ".") || is_punct(toks_[i - 1], "->")) &&
          i + 1 < toks_.size() && is_punct(toks_[i + 1], "(")) {
        flag(13, t, "raw stream .write() in durability-critical code; write "
                    "through core::durable_write / core::Wal");
      }
    }
  }

  // R14: a FederatedServer is only ever constructed by the JobRunner
  // registry (src/flare/jobs.*) — hosting every server behind the one
  // registry is what keeps job ids collision-checked, frames routable by
  // job, and the admin console complete. References and pointers
  // (FederatedServer& / FederatedServer*) stay legal everywhere; only
  // *construction* is confined. server.* itself is exempt (the class
  // declares and defines its own constructors).
  void r14_server_via_job_runner() {
    if (starts_with(path_, "src/flare/jobs.")) return;
    if (starts_with(path_, "src/flare/server.")) return;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is_ident(toks_[i], "FederatedServer")) continue;
      const Token* p = prev(i);
      bool construction = false;
      // make_unique<FederatedServer>(...) / make_shared<FederatedServer>
      if (p != nullptr && is_punct(*p, "<") && i >= 2 &&
          (is_ident(toks_[i - 2], "make_unique") ||
           is_ident(toks_[i - 2], "make_shared"))) {
        construction = true;
      }
      // new FederatedServer(...)
      if (p != nullptr && is_ident(*p, "new")) construction = true;
      if (!construction && i + 1 < toks_.size()) {
        const Token& n = toks_[i + 1];
        // FederatedServer server(...) / FederatedServer server{...}
        if (n.kind == TokKind::kIdent && i + 2 < toks_.size() &&
            (is_punct(toks_[i + 2], "(") || is_punct(toks_[i + 2], "{"))) {
          construction = true;
        }
        // FederatedServer(...) / FederatedServer{...} temporary
        if (is_punct(n, "(") || is_punct(n, "{")) construction = true;
      }
      if (construction) {
        flag(14, toks_[i],
             "FederatedServer constructed outside src/flare/jobs.*; submit a "
             "JobSpec to the JobRunner registry instead (keeps job ids "
             "unique, frames routable, and the admin console complete)");
      }
    }
  }

  // R15: ISA-specific code — the intrinsics and cpuid headers and
  // per-function target attributes — lives only in src/core/sha256.cpp,
  // behind its one-time cpuid dispatch. Anywhere else an instruction the
  // CPU may lack would run unguarded (SIGILL on an older host), or would
  // need a global -m flag that ties the whole binary to one CPU family.
  void r15_isa_code_confined() {
    if (path_ == "src/core/sha256.cpp") return;
    static const std::array<const char*, 3> kHeaders = {
        "<immintrin.h>", "<x86intrin.h>", "<cpuid.h>"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == TokKind::kPreproc) {
        if (!contains(t.text, "include")) continue;
        for (const char* header : kHeaders) {
          if (!contains(t.text, header)) continue;
          flag(15, t, std::string("#include ") + header +
                          " outside src/core/sha256.cpp; ISA-specific code "
                          "stays behind that unit's runtime cpuid dispatch");
        }
        continue;
      }
      // __attribute__((target(...))) and its [[gnu::target(...)]] spelling.
      const bool gnu_attr = is_ident(t, "__attribute__") && i + 3 < toks_.size() &&
                            is_punct(toks_[i + 1], "(") &&
                            is_punct(toks_[i + 2], "(") &&
                            is_ident(toks_[i + 3], "target");
      const bool std_attr = is_ident(t, "gnu") && i + 2 < toks_.size() &&
                            is_punct(toks_[i + 1], "::") &&
                            is_ident(toks_[i + 2], "target");
      if (gnu_attr || std_attr) {
        flag(15, t, "target attribute outside src/core/sha256.cpp; "
                    "ISA-specific code stays behind that unit's runtime "
                    "cpuid dispatch");
      }
    }
  }

  const std::string& path_;
  const std::vector<Token>& toks_;
  const std::map<int, std::set<int>>& exemptions_;
  const std::set<std::string>& nodiscard_fns_;
  std::vector<Finding>& out_;
};

/// Cross-file pass: function names declared as returning a *Status/*Result
/// type. Pattern: <TypeEndingInStatusOrResult> <ident> "(" — deliberately
/// loose (it also catches variable declarations with ctor arguments), which
/// only matters if such a variable name is later *called* and discarded.
std::set<std::string> collect_nodiscard_fns(const std::vector<FileUnit>& files) {
  std::set<std::string> fns;
  for (const FileUnit& f : files) {
    const std::vector<Token>& toks = f.lx.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      const Token& ty = toks[i];
      if (ty.kind != TokKind::kIdent) continue;
      if (!ends_with(ty.text, "Status") && !ends_with(ty.text, "Result")) {
        continue;
      }
      const Token& name = toks[i + 1];
      if (name.kind != TokKind::kIdent) continue;
      if (!is_punct(toks[i + 2], "(")) continue;
      fns.insert(name.text);
    }
  }
  return fns;
}

}  // namespace

std::vector<Finding> run_rules(const std::vector<FileUnit>& files) {
  const std::set<std::string> nodiscard_fns = collect_nodiscard_fns(files);
  std::vector<Finding> out;
  for (const FileUnit& f : files) {
    RuleRunner(f, nodiscard_fns, out).run();
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    return a.rule < b.rule;
  });
  return out;
}

const char* rule_summary(int rule) {
  switch (rule) {
    case 1: return "no rand()/srand(): randomness flows through seeded core::Rng";
    case 2: return "no naked new/delete in src/flare/: ownership crosses threads";
    case 3: return "no <iostream> outside the logging sink";
    case 4: return "headers use #pragma once";
    case 5: return "no raw std::thread outside src/core/ (epoll reactor sanctioned)";
    case 6: return "no naked sleeps outside core::Backoff";
    case 7: return "contributions go through UpdateValidator::admit";
    case 8: return "structured logging only outside src/core/";
    case 9: return "no unordered-container iteration in determinism-sensitive code";
    case 10: return "no blocking transport/sleep call while a lock is held "
                    "(the reactor's nonblocking socket I/O sanctioned)";
    case 11: return "Status/Result types are [[nodiscard]] and never dropped";
    case 12: return "secure-aggregation key material (dealer/pair keys) stays "
                    "inside src/flare/secure_agg.* and provisioning";
    case 13: return "persistor/journal write only through core durable-io "
                    "(durable_write / Wal), never raw streams";
    case 14: return "FederatedServer is constructed only by the JobRunner "
                    "registry (src/flare/jobs.*)";
    case 15: return "intrinsics/cpuid headers and target attributes only in "
                    "src/core/sha256.cpp, behind its runtime dispatch";
    default: return "";
  }
}

}  // namespace cflint
