// Deterministic fault injection for the locale-grid runtime.
//
// The paper's central finding is that fine-grained remote access
// dominates distributed GraphBLAS cost; at production scale those same
// access patterns are also where real systems *fail*. Every modeled
// remote access in pgas-graphblas flows through one comm layer
// (LocaleCtx::remote_* and AggChannel::flush_*), so that layer is the
// seam where faults are injected and delivery guarantees live:
//
//   FaultSpec    a parsed schedule of injectable faults — message drop,
//                duplication, payload corruption (checksum-detectable),
//                transient peer stall, and permanent locale failure at a
//                chosen simulated time. One grammar serves the `pgb
//                --faults=` flag, the tests, and the chaos CI job.
//   FaultPlan    the spec bound to a seed: a deterministic stream of
//                per-transfer fate decisions (same spec + seed => the
//                same faults in the same places, bit for bit).
//   RetryPolicy  how the comm layer reacts: max attempts, ack timeout,
//                exponential backoff with jitter drawn from the plan's
//                RNG. Retries charge simulated time through the normal
//                network model, so a chaos trace shows where it went.
//
// Faults only perturb the *modeled* execution — charging, counters and
// the locale-failure schedule. The in-process data movement is
// unaffected (a "dropped" transfer is re-sent until delivered, a
// duplicate is deduplicated by sequence number), so any run without a
// locale kill is bit-identical to the fault-free run; kills are
// recovered by the resilient driver (fault/recovery.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace pgb {

enum class FaultKind {
  kDrop,       ///< message lost in flight (sender times out, re-sends)
  kDuplicate,  ///< message delivered twice (receiver drops the copy)
  kCorrupt,    ///< payload corrupted (checksum fails, receiver NAKs)
  kStall,      ///< transient peer stall: extra latency on one transfer
  kLocaleFail, ///< permanent locale death at a simulated time
};

const char* to_string(FaultKind k);

/// One clause of a fault spec.
struct FaultRule {
  FaultKind kind = FaultKind::kDrop;
  /// Per-transfer injection probability (message faults).
  double probability = 0.0;
  /// Restrict a message fault to transfers whose destination is this
  /// locale (-1 = any peer). For kLocaleFail: the victim locale.
  int locale = -1;
  /// kStall only: deterministic source targeting — every transfer *sent
  /// by* this locale stalls, no probability draw involved (-1 = off).
  /// This is how straggler tests pin the slow locale exactly.
  int src_locale = -1;
  /// kStall: latency added to the stalled transfer, in seconds.
  double stall_seconds = 0.0;
  /// kLocaleFail: simulated time of death, in seconds.
  double at_time = 0.0;
};

/// A parsed fault schedule. Grammar (one string, used verbatim by
/// `pgb --faults=`, the tests, and CI):
///
///   SPEC   := clause (';' clause)*
///   clause := KIND [':' key '=' value (',' key '=' value)*]
///   KIND   := drop | dup | corrupt | stall | kill
///
/// Keys per kind:
///   drop / dup / corrupt:  p=<prob in [0,1]>  [peer=<locale>]
///   stall:                 p=<prob> ms=<added latency in ms> [peer=<locale>]
///                        | locale=<src id> ms=<added latency in ms>
///                          (deterministic: every transfer *sent by* that
///                          locale stalls; p= and peer= are rejected)
///   kill:                  locale=<id> at=<simulated seconds>
///
/// Numbers (p, ms, at) are finite decimals: no padding, '+', hex, inf or
/// nan; ms is at most 1e9. Locale ids (locale, peer) are whole decimal
/// ints >= 0, and a grid rejects a plan that names a locale it does not
/// have.
///
/// Examples:  "drop:p=0.01"
///            "drop:p=0.02,peer=3;stall:p=0.001,ms=0.5"
///            "stall:locale=7,ms=0.5"
///            "corrupt:p=0.005;kill:locale=5,at=0.002"
struct FaultSpec {
  std::vector<FaultRule> rules;

  /// Parses the grammar above; throws InvalidArgument with a pointed
  /// message on malformed input.
  static FaultSpec parse(const std::string& spec);

  /// Canonical rendering (parses back to an equal spec).
  std::string to_string() const;

  /// Largest locale id any rule names (kill, peer or stall source); -1
  /// when none does.
  int max_locale() const;
};

/// How the comm layer turns faults into delivery guarantees.
struct RetryPolicy {
  /// Total send attempts per logical transfer (first try included).
  int max_attempts = 4;
  /// Modeled ack timeout charged for an attempt that was dropped or
  /// whose peer is dead, in seconds.
  double timeout = 100e-6;
  /// Base backoff before the first retry, in seconds.
  double backoff = 20e-6;
  /// Backoff multiplier per further retry.
  double backoff_mult = 2.0;
  /// Fraction of each backoff randomized (drawn from the plan's RNG).
  double jitter = 0.5;

  /// Throws InvalidArgument on nonsensical values (max_attempts < 1,
  /// negative times).
  void validate() const;
};

/// Thrown when a permanently failed locale is detected (by the grid's
/// coforall dispatch). The resilient driver catches it and fails over;
/// without a driver it surfaces to the caller.
class LocaleFailed : public Error {
 public:
  LocaleFailed(int locale, double sim_time);
  int locale() const { return locale_; }
  double when() const { return sim_time_; }

 private:
  int locale_;
  double sim_time_;
};

/// Everything the comm layer needs to charge one logical transfer that
/// went through the fault plan: how many wire attempts it took, what was
/// injected, and the extra simulated time owed beyond the attempts
/// themselves.
struct DeliveryOutcome {
  int attempts = 1;        ///< wire sends, including the successful one
  int duplicates = 0;      ///< extra wire copies from kDuplicate
  int drops = 0;           ///< sampled in-flight losses
  int corrupts = 0;        ///< checksum-failed arrivals (NAK + re-send)
  int stalls = 0;          ///< transfers hit by a peer stall
  int timeouts = 0;        ///< attempts that waited out the ack timeout
  double stall_time = 0.0; ///< injected stall latency, seconds
  double wait_time = 0.0;  ///< ack timeouts + backoff waits, seconds
  bool delivered = true;   ///< false: attempts exhausted (peer dead)
};

/// A fault spec bound to a seed: the deterministic decision stream the
/// runtime consults. Attached to a LocaleGrid (not owned) with
/// grid.set_fault_plan(); a null plan means the entire fault path is one
/// branch-to-nothing.
class FaultPlan {
 public:
  FaultPlan(FaultSpec spec, std::uint64_t seed);

  const FaultSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }

  /// True when the spec contains any message fault (drop/dup/corrupt/
  /// stall) — lets the comm layer skip sampling entirely for kill-only
  /// plans.
  bool has_message_faults() const { return !message_rules_.empty(); }

  /// Samples the fate of one wire attempt from `src` to `peer`. Each
  /// call consumes RNG state; the sequence is a pure function of
  /// (spec, seed, call order).
  struct AttemptFate {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    double stall = 0.0;
  };
  AttemptFate attempt_fate(int src, int peer);

  /// Permanent-failure schedule. A locale is down once the querying
  /// clock passes its kill time, until a recovery driver replaces it
  /// (mark_recovered).
  bool is_down(int locale, double sim_now) const;
  double kill_time(int locale) const;  ///< +inf when never killed
  void mark_recovered(int locale);

  /// Uniform [0,1) from the plan's RNG (retry backoff jitter), so chaos
  /// timing shares the one deterministic stream.
  double uniform() { return rng_.next_double(); }

  /// Number of fate samples drawn so far (determinism checks in tests).
  std::int64_t decisions() const { return decisions_; }

 private:
  FaultSpec spec_;
  std::uint64_t seed_;
  Xoshiro256 rng_;
  std::int64_t decisions_ = 0;
  std::vector<FaultRule> message_rules_;
  struct Kill {
    int locale;
    double at_time;
    bool recovered;
  };
  std::vector<Kill> kills_;
};

/// Runs one logical transfer src -> peer through the plan under `rp`:
/// samples attempt fates until one is delivered (or attempts are
/// exhausted — the only way that happens is a dead peer or a drop storm)
/// and accumulates the retry/backoff time owed. `sim_now` anchors the
/// dead-peer check. Shared by LocaleCtx::remote_* and AggChannel.
DeliveryOutcome plan_delivery(FaultPlan& plan, const RetryPolicy& rp,
                              int src, int peer, double sim_now);

}  // namespace pgb
