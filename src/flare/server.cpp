#include "flare/server.h"

#include <algorithm>
#include <chrono>

#include "core/crashpoint.h"
#include "core/error.h"
#include "core/logging.h"
#include "core/rng.h"
#include "flare/observability.h"

namespace cppflare::flare {

namespace {
/// Two components log from this file (NVFlare splits them the same way):
/// registration/liveness under ClientManager, round control under
/// ScatterAndGather — hence LOG_AS instead of a file-wide LOG component.
constexpr const char* kClientManager = "ClientManager";
constexpr const char* kSag = "ScatterAndGather";

/// The sender is authenticated but its session is gone (server restart or
/// eviction followed by session loss). Mapped to ErrorCode::kUnknownSession
/// so clients know to re-register instead of aborting.
struct UnknownSessionError : public ProtocolError {
  using ProtocolError::ProtocolError;
};

/// Masked uploads are pseudorandom bit patterns: NaN/Inf scans and norm
/// statistics would reject every honest contribution, so secure aggregation
/// forces those validator passes off (the documented trade-off — masking
/// defeats per-site inspection; DESIGN.md §14). Schema, freshness and
/// sample-count checks still run: shapes and meta stay plaintext.
ValidatorConfig effective_validator_config(const ServerConfig& config) {
  ValidatorConfig v = config.validator;
  if (!config.secure_agg.enabled) return v;
  if (v.enabled && (v.check_finite || v.norm_zscore_threshold > 0.0)) {
    LOG_AS(kSag, warn)
        .msg("Secure aggregation enabled: disabling finite-value and "
             "norm-outlier validation (masked updates are opaque to "
             "per-site inspection)")
        .kv("job", config.job_id);
    v.check_finite = false;
    v.norm_zscore_threshold = 0.0;
  }
  return v;
}
}  // namespace

const char* abort_code_name(AbortCode code) {
  switch (code) {
    case AbortCode::kNone: return "none";
    case AbortCode::kExternal: return "external";
    case AbortCode::kAllRejected: return "all_rejected";
    case AbortCode::kDeadlineBelowQuorum: return "deadline_below_quorum";
    case AbortCode::kRecoveryBelowQuorum: return "recovery_below_quorum";
    case AbortCode::kRecoveryExhausted: return "recovery_exhausted";
  }
  return "unknown";
}

FederatedServer::FederatedServer(ServerConfig config,
                                 std::map<std::string, Credential> registry,
                                 nn::StateDict initial_model,
                                 std::unique_ptr<Aggregator> aggregator,
                                 std::shared_ptr<ModelPersistor> persistor,
                                 std::optional<Checkpoint> resume,
                                 std::shared_ptr<RoundJournal> journal)
    : config_(std::move(config)),
      registry_(std::move(registry)),
      persistor_(std::move(persistor)),
      journal_(std::move(journal)),
      global_(std::move(initial_model)),
      aggregator_(std::move(aggregator)),
      validator_(effective_validator_config(config_)),
      reputation_(config_.reputation) {
  if (!aggregator_) throw Error("FederatedServer: aggregator required");
  if (config_.job_id.empty()) {
    throw ConfigError(
        "FederatedServer: job_id is required (the job registry keys servers "
        "and routes wire frames by it)");
  }
  if (config_.num_rounds <= 0) throw Error("FederatedServer: num_rounds must be > 0");
  mask_recovery_ = dynamic_cast<MaskRecoveryCapable*>(aggregator_.get());
  if (config_.secure_agg.enabled) {
    if (mask_recovery_ == nullptr) {
      throw ConfigError(
          "FederatedServer: secure_agg.enabled requires a mask-recovery-"
          "capable aggregator (got " + aggregator_->name() + ")");
    }
    if (config_.clients_per_round > 0) {
      throw ConfigError(
          "FederatedServer: secure aggregation cannot be combined with "
          "clients_per_round sampling — a sampled-out site's pairwise masks "
          "never cancel");
    }
  }
  if (resume.has_value()) {
    if (resume->job_id != config_.job_id) {
      throw ConfigError("FederatedServer: checkpoint is for job '" +
                        resume->job_id + "', not '" + config_.job_id + "'");
    }
    global_ = std::move(resume->model);
    history_ = std::move(resume->history);
    round_ = resume->round + 1;
    reputation_.restore(std::move(resume->reputation));
    const std::int64_t quarantined = reputation_.quarantined_count();
    LOG_AS(kSag, info)
        .msg("Resuming job " + config_.job_id + " from checkpoint")
        .kv("last_round", resume->round)
        .kv("next_round", round_)
        .kv("num_rounds", config_.num_rounds)
        .kv("quarantined", quarantined);
    if (round_ >= config_.num_rounds) finished_ = true;
  }
  if (!finished_) {
    aggregator_->reset(global_, round_);
    validator_.reset(global_, round_);
  }
  if (journal_) {
    // Reconcile journal against checkpoint. Only a journal whose open round
    // IS the round we are about to run holds usable mid-round state; any
    // other open round is stale — most commonly a crash in the window after
    // the CPK3 checkpoint was saved but before the commit frame landed, in
    // which case the checkpoint already owns that round's outcome.
    const JournalReplay replay = journal_->open(config_.job_id);
    if (replay.open_round >= 0 && !finished_ &&
        replay.open_round == round_) {
      core::MutexLock lock(mu_);
      apply_journal_locked(replay);
    } else if (replay.open_round >= 0) {
      LOG_AS(kSag, warn)
          .msg("Journal holds a round the checkpoint superseded (or that no "
               "checkpoint backs); discarding it")
          .kv("journal_round", replay.open_round)
          .kv("next_round", round_)
          .kv("path", journal_->path());
      journal_->discard();
    }
  }
  // Unlocked reads are safe here: the ticker — the first other thread — has
  // not started yet, so construction still owns all state exclusively.
  born_terminal_ = finished_ || aborted_;
  // R5-exempt: the server's ticker thread (round deadlines, park expiry)
  ticker_thread_ = std::thread([this] { ticker_loop(); });
}

FederatedServer::~FederatedServer() {
  {
    core::MutexLock lock(mu_);
    ticker_stop_ = true;
    // Force-complete every park with its current answer (kStop when the run
    // ended, kNone otherwise) so no transport continuation outlives us.
    for (auto& [sender, park] : parked_) {
      ready_replies_.push_back(ReadyReply{sender, std::move(park.key),
                                          build_poll_reply_locked(sender).body,
                                          std::move(park.respond)});
    }
    parked_.clear();
    metrics_.gauge(metric_names::kServerParkedPolls).set(0.0);
    ticker_cv_.notify_all();
  }
  if (ticker_thread_.joinable()) ticker_thread_.join();
  drain_ready_replies();
}

Dispatcher FederatedServer::dispatcher() {
  return [this](const std::vector<std::uint8_t>& request) {
    return handle_sealed(request);
  };
}

AsyncDispatcher FederatedServer::async_dispatcher() {
  return [this](const std::vector<std::uint8_t>& request, RespondFn respond) {
    handle_sealed_async(request, std::move(respond));
  };
}

std::vector<std::uint8_t> FederatedServer::seal_as_server(
    const std::string& sender, const std::vector<std::uint8_t>& key,
    const std::vector<std::uint8_t>& body) {
  // The pool is internally synchronized (and possibly shared with the job
  // router), so sealing no longer touches mu_.
  return seal("server", key, outbound_seq_->next(sender), body,
              config_.job_id);
}

std::vector<std::uint8_t> FederatedServer::handle_sealed(
    const std::vector<std::uint8_t>& request) {
  std::string sender;
  std::vector<std::uint8_t> key;
  try {
    sender = peek_sender(request);
    auto cred_it = registry_.find(sender);
    if (cred_it == registry_.end()) {
      throw ProtocolError("unknown participant '" + sender + "'");
    }
    key = cred_it->second.secret;
    Envelope env;
    try {
      env = open(request, key);
    } catch (const std::exception& e) {
      // The frame failed verification *before* it was trusted: a corrupted
      // or truncated envelope. That is damage in flight, not a misbehaving
      // application — tell the client to re-seal and resend.
      return seal_as_server(
          sender, key, pack(ErrorMessage{e.what(), ErrorCode::kRetryable}));
    }
    if (!env.job_id.empty() && env.job_id != config_.job_id) {
      // Authenticated but bound to another job: a misrouted or cross-job
      // replayed frame. Typed so the client aborts instead of retrying.
      // Checked BEFORE the replay tracker advances: sites share one
      // credential across jobs, so a replayed high-sequence frame from
      // another job must not poison this job's per-sender sequence state
      // (it would wedge the site's legitimate client as a false replay).
      return seal_as_server(
          sender, key,
          pack(ErrorMessage{"frame bound to job '" + env.job_id +
                                "' reached job '" + config_.job_id + "'",
                            ErrorCode::kWrongJob}));
    }
    try {
      inbound_seq_.check_and_advance(sender, env.sequence);
    } catch (const std::exception& e) {
      // Replayed envelope: retryable, the client re-seals with a fresh
      // sequence and resends.
      return seal_as_server(
          sender, key, pack(ErrorMessage{e.what(), ErrorCode::kRetryable}));
    }
    record_liveness(sender);
    const std::vector<std::uint8_t> response = handle_frame(sender, env.payload);
    const std::vector<std::uint8_t> sealed = seal_as_server(sender, key, response);
    // The request may have advanced the round and released parked polls;
    // deliver them now that mu_ is free.
    drain_ready_replies();
    return sealed;
  } catch (const UnknownSessionError& e) {
    return seal_as_server(sender, key,
                          pack(ErrorMessage{e.what(), ErrorCode::kUnknownSession}));
  } catch (const TransportError& e) {
    return seal_as_server(sender, key,
                          pack(ErrorMessage{e.what(), ErrorCode::kRetryable}));
  } catch (const std::exception& e) {
    // Errors to authenticated-but-misbehaving peers are sealed too when we
    // know the key; otherwise send a plain error envelope under an empty
    // key (the client will fail verification, which is the right outcome
    // for an unknown sender).
    return seal_as_server(sender, key,
                          pack(ErrorMessage{e.what(), ErrorCode::kFatal}));
  }
}

void FederatedServer::handle_sealed_async(
    const std::vector<std::uint8_t>& request, RespondFn respond) {
  // Same authentication skeleton as handle_sealed; the difference is the
  // get_task fork, which may park `respond` instead of answering inline.
  std::string sender;
  std::vector<std::uint8_t> key;
  try {
    sender = peek_sender(request);
    auto cred_it = registry_.find(sender);
    if (cred_it == registry_.end()) {
      throw ProtocolError("unknown participant '" + sender + "'");
    }
    key = cred_it->second.secret;
    Envelope env;
    try {
      env = open(request, key);
    } catch (const std::exception& e) {
      respond(seal_as_server(
          sender, key, pack(ErrorMessage{e.what(), ErrorCode::kRetryable})));
      return;
    }
    // Job binding before the replay tracker, for the same reason as in
    // handle_sealed: cross-job frames must not mutate sequence state.
    if (!env.job_id.empty() && env.job_id != config_.job_id) {
      respond(seal_as_server(
          sender, key,
          pack(ErrorMessage{"frame bound to job '" + env.job_id +
                                "' reached job '" + config_.job_id + "'",
                            ErrorCode::kWrongJob})));
      return;
    }
    try {
      inbound_seq_.check_and_advance(sender, env.sequence);
    } catch (const std::exception& e) {
      respond(seal_as_server(
          sender, key, pack(ErrorMessage{e.what(), ErrorCode::kRetryable})));
      return;
    }
    record_liveness(sender);
    if (peek_type(env.payload) == MsgType::kGetTask) {
      const GetTaskRequest req = decode_get_task(env.payload);
      if (req.wait_ms > 0) {
        park_or_reply_get_task(sender, key, req, respond);
        drain_ready_replies();
        return;
      }
    }
    respond(seal_as_server(sender, key, handle_frame(sender, env.payload)));
  } catch (const UnknownSessionError& e) {
    respond(seal_as_server(
        sender, key, pack(ErrorMessage{e.what(), ErrorCode::kUnknownSession})));
  } catch (const TransportError& e) {
    respond(seal_as_server(
        sender, key, pack(ErrorMessage{e.what(), ErrorCode::kRetryable})));
  } catch (const std::exception& e) {
    respond(seal_as_server(sender, key,
                           pack(ErrorMessage{e.what(), ErrorCode::kFatal})));
  }
  drain_ready_replies();
}

void FederatedServer::park_or_reply_get_task(const std::string& sender,
                                             const std::vector<std::uint8_t>& key,
                                             const GetTaskRequest& req,
                                             RespondFn& respond) {
  core::MutexLock lock(mu_);
  CF_TRACE_SPAN_SITE("server.get_task", sender, round_);
  auto it = sessions_.find(sender);
  if (it == sessions_.end() || it->second != req.session_id) {
    throw UnknownSessionError("get_task: no active session for '" + sender + "'");
  }
  maybe_close_round_locked();
  service_parked_locked();
  PollReply reply = build_poll_reply_locked(sender);
  if (reply.parkable) {
    // Park until the answer changes (round opens/advances/stops, or mask
    // recovery wants a share) or the clamped wait expires. One park per
    // site: a newer poll means the old connection is gone, so complete its
    // park with kNone (a dead connection drops the bytes harmlessly).
    auto existing = parked_.find(sender);
    if (existing != parked_.end()) {
      ready_replies_.push_back(ReadyReply{sender,
                                          std::move(existing->second.key),
                                          reply.body,
                                          std::move(existing->second.respond)});
      parked_.erase(existing);
    }
    const std::int64_t wait = std::min(req.wait_ms, kMaxGetTaskWaitMs);
    parked_.emplace(
        sender,
        ParkedPoll{key, std::move(respond),
                   std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(wait)});
    metrics_.gauge(metric_names::kServerParkedPolls)
        .set(static_cast<double>(parked_.size()));
    // The nearest deadline may have moved; let the ticker re-plan.
    ticker_cv_.notify_all();
    return;
  }
  ready_replies_.push_back(
      ReadyReply{sender, key, std::move(reply.body), std::move(respond)});
}

std::vector<std::uint8_t> FederatedServer::handle_frame(
    const std::string& sender, const std::vector<std::uint8_t>& frame) {
  switch (peek_type(frame)) {
    case MsgType::kRegister:
      return on_register(sender, decode_register(frame));
    case MsgType::kGetTask:
      return on_get_task(sender, decode_get_task(frame));
    case MsgType::kSubmitUpdate:
      return on_submit(sender, decode_submit(frame));
    case MsgType::kUnmaskResponse:
      return on_unmask(sender, decode_unmask_response(frame));
    default:
      throw ProtocolError("unexpected message type from '" + sender + "'");
  }
}

void FederatedServer::record_liveness(const std::string& sender) {
  core::MutexLock lock(mu_);
  last_seen_[sender] = std::chrono::steady_clock::now();
  if (evicted_.erase(sender) != 0) {
    LOG_AS(kClientManager, info)
        .msg("Site seen again; re-admitted to the quorum")
        .kv("site", sender)
        .kv("round", round_);
  }
}

std::vector<std::uint8_t> FederatedServer::on_register(const std::string& sender,
                                                       const RegisterRequest& req) {
  CF_TRACE_SPAN_SITE("server.register", sender, -1);
  if (req.site_name != sender) {
    throw ProtocolError("register: site name does not match envelope sender");
  }
  const Credential& cred = registry_.at(sender);
  if (req.token != cred.token) {
    LOG_AS(kClientManager, warn).msg("Client presented a bad token").kv("site", sender);
    return pack(RegisterAck{false, "", "invalid token"});
  }
  core::MutexLock lock(mu_);
  auto existing = sessions_.find(sender);
  if (existing != sessions_.end()) {
    // Idempotent re-registration: a client that reconnected resumes its
    // session (and sequence state) instead of forking a second identity.
    LOG_AS(kClientManager, info)
        .msg("Client re-registered; resuming session")
        .kv("site", sender)
        .kv("session", existing->second);
    return pack(RegisterAck{
        true, existing->second,
        "Resumed session for client:" + sender + " in project " + config_.job_id});
  }
  const std::string session =
      "sess-" + std::to_string(++session_counter_) + "-" + sender;
  sessions_[sender] = session;
  LOG_AS(kClientManager, info)
      .msg("Client: New client " + sender + "@127.0.0.1 joined. Sent token: " +
           cred.token + ". Total clients: " + std::to_string(sessions_.size()));
  if (!started_ && !finished_ && !aborted_ &&
      static_cast<std::int64_t>(sessions_.size()) >= config_.expected_clients) {
    started_ = true;
    events_.fire(EventType::kStartRun, make_context_locked());
    start_round_locked();
    // The round just opened: every parked long-poll now has a train task.
    service_parked_locked();
  }
  return pack(RegisterAck{
      true, session,
      "Successfully registered client:" + sender + " for project " +
          config_.job_id + ". Token:" + cred.token});
}

FederatedServer::PollReply FederatedServer::build_poll_reply_locked(
    const std::string& sender) {
  if (phase_ == RoundPhase::kRecovering && !finished_ && !aborted_) {
    if (unmask_pending_.count(sender) != 0) {
      // The skeleton lets a survivor restarted after a coordinator crash
      // (its mask filter's upload-time state gone) still derive its share.
      return PollReply{
          pack(UnmaskRequest{round_, recovery_wave_, recovery_dropped_,
                             Dxo(DxoKind::kWeights, global_.zeros_like())}),
          /*parkable=*/false};
    }
    // The round is frozen: nobody else gets work until recovery resolves.
    TaskMessage none;
    none.round = round_;
    none.total_rounds = config_.num_rounds;
    return PollReply{pack(none), /*parkable=*/true};
  }
  TaskMessage task = build_task_locked(sender);
  const bool parkable =
      task.task == TaskKind::kNone && !finished_ && !aborted_;
  return PollReply{pack(task), parkable};
}

TaskMessage FederatedServer::build_task_locked(const std::string& sender) {
  TaskMessage task;
  task.total_rounds = config_.num_rounds;
  task.round = round_;
  if (finished_ || aborted_) {
    task.task = TaskKind::kStop;
  } else if (!started_ || resolved_locked(sender) ||
             !participates_locked(sender)) {
    task.task = TaskKind::kNone;
  } else {
    task.task = TaskKind::kTrain;
    task.payload = Dxo(DxoKind::kWeights, global_);
    task.payload.set_meta_int(Dxo::kMetaRound, round_);
  }
  return task;
}

void FederatedServer::service_parked_locked() {
  if (parked_.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto it = parked_.begin(); it != parked_.end();) {
    PollReply reply = build_poll_reply_locked(it->first);
    if (reply.parkable && now < it->second.deadline) {
      ++it;
      continue;
    }
    // Completing a park is traffic from the site's point of view: the
    // client was waiting on us, not silent — refresh its liveness clock.
    last_seen_[it->first] = now;
    ready_replies_.push_back(ReadyReply{it->first, std::move(it->second.key),
                                        std::move(reply.body),
                                        std::move(it->second.respond)});
    it = parked_.erase(it);
  }
  metrics_.gauge(metric_names::kServerParkedPolls)
      .set(static_cast<double>(parked_.size()));
}

void FederatedServer::drain_ready_replies() {
  std::vector<ReadyReply> ready;
  {
    core::MutexLock lock(mu_);
    ready.swap(ready_replies_);
  }
  for (ReadyReply& reply : ready) {
    try {
      // Free each body once sealed: a round opening for N parked sites
      // stages N bodies, and keeping them until the loop ends doubles the
      // batch's footprint while the sealed copies wait to be consumed.
      const std::vector<std::uint8_t> body = std::move(reply.body);
      reply.respond(seal_as_server(reply.sender, reply.key, body));
    } catch (const std::exception& e) {
      LOG_AS(kSag, warn)
          .msg("Dropping undeliverable parked reply")
          .kv("site", reply.sender)
          .kv("error", e.what());
    }
  }
}

void FederatedServer::ticker_loop() {
  core::MutexLock lock(mu_);
  while (!ticker_stop_) {
    // Plan the nap: coarse by default, fine while timed fault-tolerance
    // machinery is armed, and never past the nearest park deadline.
    std::int64_t wait_ms = 500;
    if (started_ && !finished_ && !aborted_ &&
        (config_.round_deadline_ms > 0 || config_.liveness_timeout_ms > 0 ||
         phase_ == RoundPhase::kRecovering)) {
      wait_ms = 20;
    }
    if (!parked_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      for (const auto& [site, park] : parked_) {
        const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                               park.deadline - now)
                               .count();
        wait_ms = std::min(wait_ms, std::max<std::int64_t>(5, until));
      }
    }
    ticker_cv_.wait_for_ms(mu_, wait_ms,
                           [this]() CF_REQUIRES(mu_) { return ticker_stop_; });
    if (ticker_stop_) break;
    if (started_ && !finished_ && !aborted_) maybe_close_round_locked();
    service_parked_locked();
    if (!ready_replies_.empty()) {
      lock.unlock();
      drain_ready_replies();
      lock.lock();
    }
  }
}

std::vector<std::uint8_t> FederatedServer::on_get_task(const std::string& sender,
                                                       const GetTaskRequest& req) {
  core::MutexLock lock(mu_);
  CF_TRACE_SPAN_SITE("server.get_task", sender, round_);
  auto it = sessions_.find(sender);
  if (it == sessions_.end() || it->second != req.session_id) {
    throw UnknownSessionError("get_task: no active session for '" + sender + "'");
  }
  maybe_close_round_locked();
  service_parked_locked();
  return build_poll_reply_locked(sender).body;
}

void FederatedServer::record_rejection_locked(RejectReason reason) {
  metrics_
      .counter(std::string(metric_names::kRejectionPrefix) +
               reject_reason_name(reason))
      .add(1);
  if (reason != RejectReason::kQuarantined) {
    metrics_.counter(metric_names::kServerContribRejected).add(1);
  }
}

// Per-site gauges recorded for *every* upload that reaches the server,
// before validation runs — so a run that aborts mid-round still carries the
// last reported state of each site (SimulationResult::site_metrics).
void FederatedServer::record_site_metrics_locked(const std::string& site,
                                                 const Dxo& contribution) {
  metrics_.gauge(site_metric_name(site, "round")).set(static_cast<double>(round_));
  metrics_.gauge(site_metric_name(site, "num_samples"))
      .set(static_cast<double>(contribution.meta_int(Dxo::kMetaNumSamples, 0)));
  metrics_.gauge(site_metric_name(site, "train_loss"))
      .set(contribution.meta_double(Dxo::kMetaTrainLoss, 0.0));
  metrics_.gauge(site_metric_name(site, "valid_acc"))
      .set(contribution.meta_double(Dxo::kMetaValidAcc, 0.0));
  metrics_.gauge(site_metric_name(site, "valid_loss"))
      .set(contribution.meta_double(Dxo::kMetaValidLoss, 0.0));
}

/// This round's rejection tally: current counters minus the round-start
/// baseline, keyed by reason name (counter name with the prefix stripped).
std::map<std::string, std::int64_t> FederatedServer::round_rejects_locked() const {
  const std::string prefix = metric_names::kRejectionPrefix;
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] :
       metrics_.snapshot().counters_with_prefix(prefix)) {
    std::int64_t base = 0;
    auto it = reject_baseline_.find(name);
    if (it != reject_baseline_.end()) base = it->second;
    if (value > base) out[name.substr(prefix.size())] = value - base;
  }
  return out;
}

std::vector<std::uint8_t> FederatedServer::on_submit(const std::string& sender,
                                                     const SubmitUpdateRequest& req) {
  core::MutexLock lock(mu_);
  CF_TRACE_SPAN_SITE("server.submit", sender, round_);
  auto it = sessions_.find(sender);
  if (it == sessions_.end() || it->second != req.session_id) {
    throw UnknownSessionError("submit: no active session for '" + sender + "'");
  }
  if (finished_) {
    return pack(SubmitAck{false, "run already finished", RejectReason::kRunOver});
  }
  if (aborted_) return pack(SubmitAck{false, "run aborted", RejectReason::kRunOver});
  if (req.round != round_) {
    LOG_AS(kSag, warn)
        .msg("Stale contribution")
        .kv("site", sender)
        .kv("round", req.round)
        .kv("current", round_);
    metrics_.counter(metric_names::kServerLateContribs).add(1);
    if (req.round >= 0 &&
        req.round < static_cast<std::int64_t>(history_.size())) {
      // The round it was meant for already closed (deadline or eviction):
      // count it as late telemetry on that round's history entry.
      history_[static_cast<std::size_t>(req.round)].late_contributions += 1;
    }
    return pack(SubmitAck{false, "stale round", RejectReason::kStaleRound});
  }
  if (submitted_.count(sender) != 0) {
    // At-least-once delivery: the first submit landed but its ack was lost
    // and the client resent. Dedup here; the client maps this message back
    // to success.
    return pack(SubmitAck{false, kDuplicateContribution, RejectReason::kDuplicate});
  }
  if (rejected_acks_.count(sender) != 0) {
    // Already resolved this round with a rejection; answer resends with
    // the same verdict (at-least-once delivery, idempotent acks).
    return pack(rejected_acks_.at(sender));
  }
  if (phase_ == RoundPhase::kRecovering) {
    // The round is frozen mid-recovery: this site is in the dropped set,
    // and admitting it now would invalidate the shares already requested
    // from the survivors. It trains again when the next round opens.
    record_rejection_locked(RejectReason::kRecoveryInProgress);
    return pack(SubmitAck{false, "round frozen in mask recovery",
                          RejectReason::kRecoveryInProgress});
  }
  if (!participates_locked(sender)) {
    return pack(SubmitAck{false, "not sampled for this round",
                          RejectReason::kNotSampled});
  }

  Dxo contribution = req.payload;
  const FLContext ctx = make_context_locked();
  inbound_filters_.process(contribution, ctx);
  record_site_metrics_locked(sender, contribution);

  if (reputation_.quarantined(sender)) {
    // Quarantined uploads never reach the aggregator, but they are still
    // screened (and their norm judged at round close) so clean rounds can
    // grow the site's parole streak.
    ScoredUpload scored;
    scored.verdict = validator_.score(sender, contribution, &scored.norm);
    if (journal_) {
      journal_->quarantine_scored(
          sender, static_cast<std::uint8_t>(scored.verdict.reason),
          scored.verdict.detail, scored.norm);
    }
    scored_quarantined_[sender] = std::move(scored);
    record_rejection_locked(RejectReason::kQuarantined);
    const SubmitAck ack{false,
                        "quarantined: update scored but excluded from "
                        "aggregation",
                        RejectReason::kQuarantined};
    rejected_acks_[sender] = ack;
    maybe_close_round_locked();
    service_parked_locked();
    return pack(ack);
  }

  const Verdict verdict = validator_.admit(*aggregator_, sender, contribution);
  if (!verdict.ok()) {
    const SubmitAck ack{
        false,
        "rejected: " + std::string(reject_reason_name(verdict.reason)) +
            (verdict.detail.empty() ? "" : " (" + verdict.detail + ")"),
        verdict.reason};
    if (journal_) {
      journal_->rejected(sender, static_cast<std::uint8_t>(verdict.reason),
                         ack.message);
    }
    record_rejection_locked(verdict.reason);
    if (reputation_.record_rejection(sender)) {
      LOG_AS(kSag, warn)
          .msg("Site QUARANTINED after consecutive rejections")
          .kv("site", sender)
          .kv("strikes", config_.reputation.quarantine_after);
    }
    rejected_acks_[sender] = ack;
    maybe_close_round_locked();
    service_parked_locked();
    return pack(ack);
  }
  // Journal the accepted (post-filter) bytes before mutating round state:
  // after this frame is down, a crash anywhere leaves a replayable record
  // and the client's resend maps to kDuplicateContribution — the site is
  // never asked to train this round again.
  if (journal_) journal_->accepted(sender, contribution);
  CF_CRASHPOINT("journal.append.after");
  submitted_.insert(sender);
  metrics_.counter(metric_names::kServerContribAccepted).add(1);
  maybe_close_round_locked();
  // The submit may have closed the round (or aborted the run): wake every
  // parked long-poll whose answer changed.
  service_parked_locked();
  return pack(SubmitAck{true, "accepted"});
}

std::vector<std::uint8_t> FederatedServer::on_unmask(const std::string& sender,
                                                     const UnmaskResponse& req) {
  core::MutexLock lock(mu_);
  CF_TRACE_SPAN_SITE("server.unmask", sender, round_);
  auto it = sessions_.find(sender);
  if (it == sessions_.end() || it->second != req.session_id) {
    throw UnknownSessionError("unmask: no active session for '" + sender + "'");
  }
  if (finished_) {
    return pack(SubmitAck{false, "run already finished", RejectReason::kRunOver});
  }
  if (aborted_) return pack(SubmitAck{false, "run aborted", RejectReason::kRunOver});
  if (req.round < round_) {
    // That round already published: the share (or a retransmission of it)
    // served its purpose. At-least-once delivery maps this to success.
    return pack(SubmitAck{true, "recovery already complete"});
  }
  if (phase_ != RoundPhase::kRecovering || req.round != round_) {
    return pack(SubmitAck{false,
                          "no mask recovery in progress for round " +
                              std::to_string(req.round),
                          RejectReason::kStaleRound});
  }
  if (req.wave != recovery_wave_) {
    // An answer against a previous wave's (smaller) dropped set is void.
    return pack(
        SubmitAck{false, "stale recovery wave", RejectReason::kStaleRound});
  }
  if (unmask_pending_.count(sender) == 0) {
    // Duplicate delivery of a share already recorded this wave; the client
    // maps the duplicate-contribution message back to success.
    return pack(
        SubmitAck{false, kDuplicateContribution, RejectReason::kDuplicate});
  }
  if (!mask_recovery_->set_unmask_share(sender, req.share)) {
    return pack(SubmitAck{false, "mask share rejected (incongruent skeleton)",
                          RejectReason::kSchemaMismatch});
  }
  if (journal_) journal_->unmask_share(sender, req.share);
  CF_CRASHPOINT("recovery.share.after");
  unmask_pending_.erase(sender);
  metrics_.counter(metric_names::kServerUnmaskShares).add(1);
  LOG_AS(kSag, info)
      .msg("Unmask share recorded")
      .kv("site", sender)
      .kv("round", round_)
      .kv("wave", recovery_wave_)
      .kv("outstanding", static_cast<std::int64_t>(unmask_pending_.size()));
  // The last share finishes recovery and publishes the round: wake every
  // parked long-poll whose answer changed.
  advance_recovery_locked();
  service_parked_locked();
  return pack(SubmitAck{true, "mask share recorded"});
}

FLContext FederatedServer::make_context_locked() const {
  FLContext ctx;
  ctx.job_id = config_.job_id;
  ctx.current_round = round_;
  ctx.total_rounds = config_.num_rounds;
  return ctx;
}

void FederatedServer::start_round_locked() {
  round_start_ = std::chrono::steady_clock::now();
  round_start_ns_ = core::Tracer::instance().now_ns();
  if (round_replayed_) {
    // The round was reconstructed from the journal: it is already open (and
    // journaled), its cohort is the journaled one, and the rejection
    // baseline stays empty — this process's counters started at zero and
    // replay re-incremented exactly the rejections that happened before the
    // crash. Resampling or re-journaling here would fork the round.
    round_replayed_ = false;
    LOG_AS(kSag, info)
        .msg("Round " + std::to_string(round_) +
             " resumed mid-flight from journal replay.")
        .kv("accepted", aggregator_->accepted_count())
        .kv("recovering", phase_ == RoundPhase::kRecovering);
    return;
  }
  reject_baseline_ = metrics_.snapshot().counters_with_prefix(
      metric_names::kRejectionPrefix);
  sample_round_participants_locked();
  if (journal_ && journal_open_round_ != round_) {
    journal_->round_open(
        round_, std::vector<std::string>(sampled_.begin(), sampled_.end()));
    journal_open_round_ = round_;
    CF_CRASHPOINT("journal.open.after");
  }
  LOG_AS(kSag, info).msg("Round " + std::to_string(round_) + " started.");
  events_.fire(EventType::kRoundStarted, make_context_locked());
}

// Reconstructs mid-round state by re-driving each journaled event through
// the same admission machinery the live path used: accepted DXO bytes go
// back through validator_.admit (rebuilding the aggregator's buffers AND
// the round's norm population), rejections re-strike reputation, and the
// recovery events replay the freeze/share/demotion sequence against the
// rebuilt aggregator. Runs in the constructor before the ticker exists and
// before any client can connect; deadlines restart from "now" — wall-clock
// budgets are per-process, only the *state* is durable.
void FederatedServer::apply_journal_locked(const JournalReplay& replay) {
  bool crash_pending = true;
  for (const JournalEvent& ev : replay.events) {
    switch (ev.type) {
      case JournalEventType::kRoundOpen:
        sampled_.clear();
        for (const std::string& site : ev.names) sampled_.insert(site);
        journal_open_round_ = ev.round;
        break;
      case JournalEventType::kAccepted: {
        const Verdict verdict =
            validator_.admit(*aggregator_, ev.site, *ev.payload);
        if (!verdict.ok()) {
          // Cannot happen for bytes that were admitted live unless the code
          // changed between runs; surface it rather than silently dropping
          // a contribution the client will never resend.
          throw ProtocolError(
              "journal replay: previously accepted contribution from '" +
              ev.site + "' no longer admits (" + verdict.detail + ")");
        }
        submitted_.insert(ev.site);
        metrics_.counter(metric_names::kServerContribAccepted).add(1);
        break;
      }
      case JournalEventType::kRejected: {
        const auto reason = static_cast<RejectReason>(ev.reason);
        record_rejection_locked(reason);
        (void)reputation_.record_rejection(ev.site);
        rejected_acks_[ev.site] = SubmitAck{false, ev.detail, reason};
        break;
      }
      case JournalEventType::kQuarantineScored: {
        ScoredUpload scored;
        scored.verdict.reason = static_cast<RejectReason>(ev.reason);
        scored.verdict.detail = ev.detail;
        scored.norm = ev.norm;
        scored_quarantined_[ev.site] = std::move(scored);
        record_rejection_locked(RejectReason::kQuarantined);
        rejected_acks_[ev.site] =
            SubmitAck{false,
                      "quarantined: update scored but excluded from "
                      "aggregation",
                      RejectReason::kQuarantined};
        break;
      }
      case JournalEventType::kEviction:
        evicted_.insert(ev.site);
        break;
      case JournalEventType::kRecoveryBegin:
        if (mask_recovery_ == nullptr) {
          throw ConfigError(
              "journal replay: log holds mask-recovery events but the "
              "aggregator is not mask-recovery capable");
        }
        phase_ = RoundPhase::kRecovering;
        recovery_wave_ = 0;
        recovery_deadline_fired_ = ev.deadline_fired;
        recovery_dropped_ = ev.names;
        unmask_pending_.clear();
        for (const std::string& site : mask_recovery_->accepted_sites()) {
          unmask_pending_.insert(site);
        }
        recovery_deadline_ =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(config_.secure_agg.recovery_deadline_ms);
        recovery_start_ns_ = core::Tracer::instance().now_ns();
        metrics_.counter(metric_names::kServerRecoveryRounds).add(1);
        metrics_.gauge(metric_names::kServerRecoveryDropped)
            .set(static_cast<double>(recovery_dropped_.size()));
        break;
      case JournalEventType::kUnmaskShare:
        if (mask_recovery_->set_unmask_share(ev.site, *ev.payload)) {
          unmask_pending_.erase(ev.site);
          metrics_.counter(metric_names::kServerUnmaskShares).add(1);
        }
        break;
      case JournalEventType::kRecoveryWave: {
        // Re-run the demotion cascade exactly as the live path did.
        for (const std::string& site : ev.names) {
          (void)aggregator_->revoke(site);
          submitted_.erase(site);
          recovery_dropped_.push_back(site);
        }
        metrics_.counter(metric_names::kServerRecoveryDemotions)
            .add(static_cast<std::int64_t>(ev.names.size()));
        std::sort(recovery_dropped_.begin(), recovery_dropped_.end());
        mask_recovery_->clear_unmask_shares();
        unmask_pending_.clear();
        for (const std::string& site : mask_recovery_->accepted_sites()) {
          unmask_pending_.insert(site);
        }
        metrics_.gauge(metric_names::kServerRecoveryDropped)
            .set(static_cast<double>(recovery_dropped_.size()));
        const std::int64_t required = min_required_locked();
        if (static_cast<std::int64_t>(unmask_pending_.size()) < required) {
          abort_run_locked(
              "round " + std::to_string(round_) +
                  " (journal replay): mask recovery demoted the surviving "
                  "set below min_clients",
              AbortCode::kRecoveryBelowQuorum);
          return;
        }
        recovery_wave_ = ev.wave + 1;
        if (recovery_wave_ >= config_.secure_agg.max_recovery_waves) {
          abort_run_locked(
              "round " + std::to_string(round_) +
                  " (journal replay): mask recovery did not converge within " +
                  std::to_string(config_.secure_agg.max_recovery_waves) +
                  " wave(s)",
              AbortCode::kRecoveryExhausted);
          return;
        }
        recovery_deadline_ =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(config_.secure_agg.recovery_deadline_ms);
        break;
      }
      case JournalEventType::kJobHeader:
      case JournalEventType::kCommit:
        break;  // structural frames; RoundJournal::open consumed them
    }
    if (crash_pending) {
      crash_pending = false;
      CF_CRASHPOINT("replay.mid");
    }
  }
  round_replayed_ = true;
  LOG_AS(kSag, info)
      .msg("Journal replay reconstructed mid-round state")
      .kv("round", round_)
      .kv("events", static_cast<std::int64_t>(replay.events.size()))
      .kv("accepted", aggregator_->accepted_count())
      .kv("rejected", static_cast<std::int64_t>(rejected_acks_.size()))
      .kv("recovering", phase_ == RoundPhase::kRecovering)
      .kv("torn_bytes", static_cast<std::int64_t>(replay.torn_bytes));
}

// Round-close defense pass. The norm-outlier judgment runs here, over the
// round's *complete* set of admitted norms (never a running estimate), so
// verdicts — and therefore the aggregate — are independent of arrival
// order. Flagged contributions are revoked from the aggregator, then every
// site's reputation is settled for the round.
void FederatedServer::settle_round_verdicts_locked() {
  for (const auto& [site, verdict] : validator_.flag_outliers()) {
    if (!aggregator_->revoke(site)) {
      LOG_AS(kSag, warn)
          .msg("Site flagged as a norm outlier but aggregator cannot revoke; "
               "contribution kept")
          .kv("site", site)
          .kv("aggregator", aggregator_->name());
      continue;
    }
    LOG_AS(kSag, warn)
        .msg("Update revoked at round close")
        .kv("site", site)
        .kv("detail", verdict.detail);
    submitted_.erase(site);
    rejected_acks_[site] =
        SubmitAck{false, "rejected: norm_outlier (" + verdict.detail + ")",
                  RejectReason::kNormOutlier};
    record_rejection_locked(RejectReason::kNormOutlier);
    if (reputation_.record_rejection(site)) {
      LOG_AS(kSag, warn)
          .msg("Site QUARANTINED after consecutive rejections")
          .kv("site", site)
          .kv("strikes", config_.reputation.quarantine_after);
    }
  }
  // Sites whose contributions survived to aggregation were clean.
  for (const std::string& site : submitted_) {
    (void)reputation_.record_clean(site);
  }
  // Quarantined sites' scored uploads: a screening failure is a strike; a
  // screening pass is judged against the round's norm population, and a
  // clean verdict grows the parole streak.
  for (const auto& [site, scored] : scored_quarantined_) {
    Verdict verdict = scored.verdict;
    if (verdict.ok()) verdict = validator_.judge_norm(scored.norm);
    if (verdict.ok()) {
      if (reputation_.record_clean(site)) {
        LOG_AS(kSag, info)
            .msg("Site paroled; re-admitted")
            .kv("site", site)
            .kv("clean_rounds", config_.reputation.parole_after)
            .kv("from_round", round_ + 1);
      }
    } else {
      (void)reputation_.record_rejection(site);
    }
  }
}

void FederatedServer::finish_round_locked(bool deadline_fired) {
  // However this round closes, it is no longer the replayed one.
  round_replayed_ = false;
  events_.fire(EventType::kBeforeAggregation, make_context_locked());
  settle_round_verdicts_locked();
  if (aggregator_->accepted_count() == 0) {
    abort_run_locked("round " + std::to_string(round_) +
                         ": every contribution was rejected by the update "
                         "validator",
                     AbortCode::kAllRejected);
    return;
  }
  LOG_AS(kSag, info).msg("End aggregation.");
  {
    CF_TRACE_SPAN_SITE("server.aggregate", "", round_);
    global_ = aggregator_->aggregate();
  }
  RoundMetrics metrics = aggregator_->metrics();
  metrics.evicted_sites = static_cast<std::int64_t>(evicted_.size());
  metrics.deadline_fired = deadline_fired;
  for (const auto& [reason, count] : round_rejects_locked()) {
    metrics.rejections_by_reason[reason] = count;
    if (reason != reject_reason_name(RejectReason::kQuarantined)) {
      metrics.rejected_updates += count;
    }
  }
  metrics.quarantined_sites = reputation_.quarantined_count();
  history_.push_back(metrics);

  metrics_.counter(metric_names::kServerRoundsCompleted).add(1);
  metrics_.gauge(metric_names::kServerTrainLoss).set(metrics.train_loss);
  metrics_.gauge(metric_names::kServerValidAcc).set(metrics.valid_acc);
  metrics_.gauge(metric_names::kServerValidLoss).set(metrics.valid_loss);
  metrics_.gauge(metric_names::kServerEvictedSites)
      .set(static_cast<double>(metrics.evicted_sites));
  if (deadline_fired) {
    metrics_.counter(metric_names::kServerDeadlineFired).add(1);
  }
  // The round span opened in start_round_locked and closes here, across
  // many dispatch calls — hence a manual complete-event, not a ScopedSpan.
  core::Tracer& tracer = core::Tracer::instance();
  if (tracer.enabled()) {
    tracer.record_complete("server.round", {}, round_, round_start_ns_,
                           tracer.now_ns());
  }

  events_.fire(EventType::kAfterAggregation, make_context_locked());
  for (const RoundObserver& observer : round_observers_) {
    observer(round_, global_, history_.back());
  }

  if (persistor_) {
    LOG_AS(kSag, info).msg("Start persist model on server.");
    {
      CF_TRACE_SPAN_SITE("server.persist", "", round_);
      persistor_->save({config_.job_id, round_, global_, history_,
                        reputation_.standings()});
    }
    LOG_AS(kSag, info).msg("End persist model on server.");
  }
  if (journal_) {
    // Commit barrier: the checkpoint above now owns this round's outcome;
    // the commit frame marks the journal's round state obsolete and the
    // log is compacted back to its job header. A crash in this window
    // (journal.commit.before) resolves at restart by the open-round-vs-
    // checkpoint reconciliation — the stale journal is discarded.
    CF_CRASHPOINT("journal.commit.before");
    journal_->commit(round_);
    journal_open_round_ = -1;
  }
  LOG_AS(kSag, info).msg("Round " + std::to_string(round_) + " finished.");
  events_.fire(EventType::kRoundDone, make_context_locked());

  submitted_.clear();
  rejected_acks_.clear();
  scored_quarantined_.clear();
  round_ += 1;
  if (round_ >= config_.num_rounds) {
    finished_ = true;
    events_.fire(EventType::kEndRun, make_context_locked());
    finished_cv_.notify_all();
  } else {
    aggregator_->reset(global_, round_);
    validator_.reset(global_, round_);
    start_round_locked();
  }
}

void FederatedServer::maybe_close_round_locked() {
  if (finished_ || aborted_ || !started_) return;
  if (phase_ == RoundPhase::kRecovering) {
    // The round already closed for contributions; only recovery progress
    // (shares arriving, the wave deadline) can move it now.
    advance_recovery_locked();
    return;
  }
  evict_stragglers_locked();
  // A round closes when enough participants have *resolved* (accepted or
  // rejected), not just accepted: a rejected site will never submit again
  // this round, so waiting on it would stall until the deadline.
  if (resolved_participant_count_locked() >= round_quorum_locked()) {
    close_round_locked(/*deadline_fired=*/false);
    return;
  }
  const std::int64_t accepted = aggregator_->accepted_count();
  if (config_.round_deadline_ms <= 0) return;
  const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - round_start_)
                       .count();
  if (age < config_.round_deadline_ms) return;
  const std::int64_t required = min_required_locked();
  if (accepted >= required) {
    LOG_AS(kSag, warn)
        .msg("Round deadline exceeded; closing early")
        .kv("round", round_)
        .kv("accepted", accepted)
        .kv("quorum", round_quorum_locked());
    close_round_locked(/*deadline_fired=*/true);
  } else {
    abort_run_locked("round " + std::to_string(round_) +
                         " deadline exceeded with " + std::to_string(accepted) +
                         " contribution(s), below min_clients=" +
                         std::to_string(required),
                     AbortCode::kDeadlineBelowQuorum);
  }
}

void FederatedServer::close_round_locked(bool deadline_fired) {
  if (config_.secure_agg.enabled && mask_recovery_ != nullptr &&
      aggregator_->accepted_count() > 0) {
    // Masked round: every registered site whose contribution is *not* in
    // the aggregate (crashed, evicted, rejected, or simply late) leaves
    // uncancelled masks behind. Detour into recovery when any exist.
    std::set<std::string> accepted;
    for (const std::string& site : mask_recovery_->accepted_sites()) {
      accepted.insert(site);
    }
    std::vector<std::string> dropped;
    for (const auto& [site, session] : sessions_) {
      if (accepted.count(site) == 0) dropped.push_back(site);
    }
    if (!dropped.empty()) {
      begin_recovery_locked(std::move(dropped), deadline_fired);
      return;
    }
  }
  finish_round_locked(deadline_fired);
}

void FederatedServer::begin_recovery_locked(std::vector<std::string> dropped,
                                            bool deadline_fired) {
  std::sort(dropped.begin(), dropped.end());
  // Journal the freeze before entering it: a crash anywhere in the recovery
  // phase replays back to a frozen round with this exact dropped set.
  if (journal_) journal_->recovery_begin(round_, dropped, deadline_fired);
  CF_CRASHPOINT("recovery.begin.after");
  phase_ = RoundPhase::kRecovering;
  recovery_wave_ = 0;
  recovery_deadline_fired_ = deadline_fired;
  recovery_dropped_ = std::move(dropped);
  unmask_pending_.clear();
  for (const std::string& site : mask_recovery_->accepted_sites()) {
    unmask_pending_.insert(site);
  }
  recovery_deadline_ =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.secure_agg.recovery_deadline_ms);
  recovery_start_ns_ = core::Tracer::instance().now_ns();
  metrics_.counter(metric_names::kServerRecoveryRounds).add(1);
  metrics_.gauge(metric_names::kServerRecoveryDropped)
      .set(static_cast<double>(recovery_dropped_.size()));
  std::string names;
  for (const std::string& s : recovery_dropped_) {
    names += (names.empty() ? "" : ", ") + s;
  }
  LOG_AS(kSag, warn)
      .msg("Masked round closed with sites missing; entering mask recovery")
      .kv("round", round_)
      .kv("dropped", names)
      .kv("survivors", static_cast<std::int64_t>(unmask_pending_.size()));
  // Survivors parked in long-polls must receive their UnmaskRequest now;
  // the ticker must watch the new deadline.
  service_parked_locked();
  ticker_cv_.notify_all();
}

void FederatedServer::advance_recovery_locked() {
  if (phase_ != RoundPhase::kRecovering) return;
  if (unmask_pending_.empty()) {
    finish_recovery_locked();
    return;
  }
  if (std::chrono::steady_clock::now() < recovery_deadline_) return;
  // Wave deadline: every survivor still owing its share is demoted — the
  // buffered masked contribution is revoked byte-exactly (so its own masks
  // leave the sum with it) and its name joins the dropped set. The
  // remaining survivors must answer again against the enlarged set, so all
  // recorded shares are void.
  const std::set<std::string> laggards = unmask_pending_;
  // One frame covers the whole demotion cascade: replay re-runs it
  // atomically, so a crash mid-loop (recovery.wave.mid) cannot leave a
  // half-demoted wave.
  if (journal_) {
    journal_->recovery_wave(
        recovery_wave_,
        std::vector<std::string>(laggards.begin(), laggards.end()));
  }
  bool first_demotion = true;
  for (const std::string& site : laggards) {
    (void)aggregator_->revoke(site);
    submitted_.erase(site);
    recovery_dropped_.push_back(site);
    if (first_demotion) {
      first_demotion = false;
      CF_CRASHPOINT("recovery.wave.mid");
    }
    LOG_AS(kSag, warn)
        .msg("Survivor failed to reveal its mask share in time; demoted")
        .kv("site", site)
        .kv("round", round_)
        .kv("wave", recovery_wave_);
  }
  metrics_.counter(metric_names::kServerRecoveryDemotions)
      .add(static_cast<std::int64_t>(laggards.size()));
  std::sort(recovery_dropped_.begin(), recovery_dropped_.end());
  mask_recovery_->clear_unmask_shares();
  unmask_pending_.clear();
  for (const std::string& site : mask_recovery_->accepted_sites()) {
    unmask_pending_.insert(site);
  }
  metrics_.gauge(metric_names::kServerRecoveryDropped)
      .set(static_cast<double>(recovery_dropped_.size()));
  const std::int64_t required = min_required_locked();
  if (static_cast<std::int64_t>(unmask_pending_.size()) < required) {
    abort_run_locked(
        "round " + std::to_string(round_) +
            ": mask recovery demoted the surviving set to " +
            std::to_string(unmask_pending_.size()) +
            " site(s), below min_clients=" + std::to_string(required),
        AbortCode::kRecoveryBelowQuorum);
    return;
  }
  recovery_wave_ += 1;
  if (recovery_wave_ >= config_.secure_agg.max_recovery_waves) {
    abort_run_locked("round " + std::to_string(round_) +
                         ": mask recovery did not converge within " +
                         std::to_string(config_.secure_agg.max_recovery_waves) +
                         " wave(s)",
                     AbortCode::kRecoveryExhausted);
    return;
  }
  recovery_deadline_ =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.secure_agg.recovery_deadline_ms);
  // Re-ask: parked survivors receive the wave's UnmaskRequest immediately.
  service_parked_locked();
  ticker_cv_.notify_all();
}

void FederatedServer::finish_recovery_locked() {
  core::Tracer& tracer = core::Tracer::instance();
  if (tracer.enabled()) {
    tracer.record_complete("server.mask_recovery", {}, round_,
                           recovery_start_ns_, tracer.now_ns());
  }
  LOG_AS(kSag, info)
      .msg("Mask recovery complete; publishing the round")
      .kv("round", round_)
      .kv("dropped", static_cast<std::int64_t>(recovery_dropped_.size()))
      .kv("waves", recovery_wave_ + 1);
  phase_ = RoundPhase::kCollecting;
  recovery_dropped_.clear();
  unmask_pending_.clear();
  recovery_wave_ = 0;
  const bool deadline_fired = recovery_deadline_fired_;
  recovery_deadline_fired_ = false;
  finish_round_locked(deadline_fired);
}

void FederatedServer::evict_stragglers_locked() {
  if (config_.liveness_timeout_ms <= 0 || !started_) return;
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [site, session] : sessions_) {
    if (resolved_locked(site) || evicted_.count(site) != 0 ||
        !participates_locked(site)) {
      continue;
    }
    // A parked long-poll is the opposite of silence: the site is connected
    // and waiting on *us*. Never evict it for not sending frames.
    if (parked_.count(site) != 0) continue;
    // Survivors answering an unmask request are doing recovery work for
    // this round — exempt (they are in submitted_, but be explicit: the
    // recovery deadline, not the liveness clock, judges them).
    if (unmask_pending_.count(site) != 0) continue;
    const auto seen = last_seen_.find(site);
    if (seen == last_seen_.end()) continue;
    // Silence is measured within the round: a site that resolved round N
    // and has not yet spoken in round N+1 owes nothing until N+1 started —
    // without this, the ticker would evict last round's contributors the
    // moment a lingering round finally closes.
    const auto silent_since = std::max(seen->second, round_start_);
    const auto silent = std::chrono::duration_cast<std::chrono::milliseconds>(
                            now - silent_since)
                            .count();
    if (silent >= config_.liveness_timeout_ms) {
      if (journal_) journal_->evicted(site);
      evicted_.insert(site);
      LOG_AS(kClientManager, warn)
          .msg("Site unseen; evicted from the quorum")
          .kv("site", site)
          .kv("silent_ms", silent)
          .kv("round", round_);
    }
  }
}

void FederatedServer::abort_run_locked(const std::string& reason,
                                       AbortCode code) {
  if (finished_ || aborted_) return;
  aborted_ = true;
  abort_reason_ = reason;
  abort_code_ = code;
  LOG_AS(kSag, error).msg("Run aborted:").msg(reason).kv(
      "code", abort_code_name(code));
  events_.fire(EventType::kEndRun, make_context_locked());
  finished_cv_.notify_all();
}

bool FederatedServer::abort(const std::string& reason) {
  bool did_abort = false;
  {
    core::MutexLock lock(mu_);
    // Terminal state is settled under mu_: a run that finished (or already
    // aborted) before we got the lock stays that way — the caller learns the
    // abort lost the race instead of a finished run flipping to aborted.
    if (!finished_ && !aborted_) {
      abort_run_locked(reason);
      did_abort = true;
    }
    service_parked_locked();  // every park now answers kStop
  }
  drain_ready_replies();
  return did_abort;
}

void FederatedServer::sample_round_participants_locked() {
  sampled_.clear();
  if (config_.clients_per_round <= 0 ||
      config_.clients_per_round >= static_cast<std::int64_t>(sessions_.size())) {
    return;  // empty set means "everyone participates"
  }
  // Quarantined sites are left out of the draw: sampling one would shrink
  // the round's effective quorum for no benefit (its upload could not be
  // aggregated anyway). They still poll and are scored when everyone
  // participates (the unsampled path).
  std::vector<std::string> sites;
  sites.reserve(sessions_.size());
  for (const auto& [site, session] : sessions_) {
    if (!reputation_.quarantined(site)) sites.push_back(site);
  }
  if (static_cast<std::int64_t>(sites.size()) <= config_.clients_per_round) {
    return;
  }
  core::Rng rng(config_.sampling_seed ^
                (static_cast<std::uint64_t>(round_) * 0x9e3779b97f4a7c15ull));
  rng.shuffle(sites);
  for (std::int64_t i = 0; i < config_.clients_per_round; ++i) {
    sampled_.insert(sites[static_cast<std::size_t>(i)]);
  }
  std::string names;
  for (const std::string& s : sampled_) names += (names.empty() ? "" : ", ") + s;
  LOG_AS(kSag, info)
      .msg("Round sampled participants:")
      .msg(names)
      .kv("round", round_);
}

bool FederatedServer::participates_locked(const std::string& site) const {
  return sampled_.empty() || sampled_.count(site) != 0;
}

bool FederatedServer::resolved_locked(const std::string& site) const {
  return submitted_.count(site) != 0 || rejected_acks_.count(site) != 0;
}

// Quarantined sites are excluded from every quorum count below: they still
// poll and are scored, but the round must not wait on them (and must not
// shrink toward min_clients because of them) — an 8-site round with one
// quarantined site closes exactly like a clean 7-site round.
std::int64_t FederatedServer::participant_count_locked() const {
  std::int64_t count = 0;
  for (const auto& [site, session] : sessions_) {
    if (participates_locked(site) && !reputation_.quarantined(site)) count += 1;
  }
  return count;
}

std::int64_t FederatedServer::live_participant_count_locked() const {
  std::int64_t live = 0;
  for (const auto& [site, session] : sessions_) {
    if (!participates_locked(site) || reputation_.quarantined(site)) continue;
    if (evicted_.count(site) == 0) live += 1;
  }
  return live;
}

std::int64_t FederatedServer::resolved_participant_count_locked() const {
  std::int64_t resolved = 0;
  for (const auto& [site, session] : sessions_) {
    if (!participates_locked(site) || reputation_.quarantined(site)) continue;
    if (resolved_locked(site)) resolved += 1;
  }
  return resolved;
}

std::int64_t FederatedServer::min_required_locked() const {
  // min_clients cannot demand more sites than this round even has.
  return std::max<std::int64_t>(
      1, std::min(config_.min_clients, participant_count_locked()));
}

std::int64_t FederatedServer::round_quorum_locked() const {
  // Wait for every live participant, but never close below the
  // graceful-degradation floor even when eviction thinned the round out.
  return std::max(min_required_locked(), live_participant_count_locked());
}

bool FederatedServer::finished() const {
  core::MutexLock lock(mu_);
  return finished_;
}

bool FederatedServer::aborted() const {
  core::MutexLock lock(mu_);
  return aborted_;
}

std::string FederatedServer::abort_reason() const {
  core::MutexLock lock(mu_);
  return abort_reason_;
}

AbortCode FederatedServer::abort_code() const {
  core::MutexLock lock(mu_);
  return abort_code_;
}

bool FederatedServer::wait_until_finished(std::int64_t timeout_ms) const {
  core::MutexLock lock(mu_);
  finished_cv_.wait_for_ms(mu_, timeout_ms, [this]() CF_REQUIRES(mu_) {
    return finished_ || aborted_;
  });
  return finished_ && !aborted_;
}

nn::StateDict FederatedServer::global_model() const {
  core::MutexLock lock(mu_);
  return global_;
}

std::vector<RoundMetrics> FederatedServer::history() const {
  core::MutexLock lock(mu_);
  return history_;
}

std::int64_t FederatedServer::current_round() const {
  core::MutexLock lock(mu_);
  return round_;
}

std::int64_t FederatedServer::registered_clients() const {
  core::MutexLock lock(mu_);
  return static_cast<std::int64_t>(sessions_.size());
}

std::vector<std::string> FederatedServer::evicted_sites() const {
  core::MutexLock lock(mu_);
  return std::vector<std::string>(evicted_.begin(), evicted_.end());
}

std::vector<std::string> FederatedServer::quarantined_sites() const {
  core::MutexLock lock(mu_);
  return reputation_.quarantined_sites();
}

std::map<std::string, SiteStanding> FederatedServer::reputation() const {
  core::MutexLock lock(mu_);
  return reputation_.standings();
}

}  // namespace cppflare::flare
