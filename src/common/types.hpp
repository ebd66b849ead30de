// Fundamental vocabulary types shared by every module of the RQS library.
//
// The paper ("Refined Quorum Systems", Guerraoui & Vukolic) reasons about a
// finite set S of processes, timestamp/value pairs written to a storage, and
// view numbers in consensus. These are small value types with strong typing
// so that, e.g., a view number cannot be confused with a timestamp.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

namespace rqs {

/// Identifier of a process (server, acceptor, client, proposer, learner...).
/// Processes participating in a quorum system are numbered 0..n-1; client
/// processes use ids >= kFirstClientId by convention of the simulator.
using ProcessId = std::uint32_t;

inline constexpr ProcessId kInvalidProcess = std::numeric_limits<ProcessId>::max();

/// Identifier of a stored object (register). The paper's storage manages a
/// single shared variable; the implementation generalizes to a keyed space
/// of independent SWMR registers multiplexed over one server fleet. Key 0
/// is the default register, so single-object code never mentions keys.
using ObjectId = std::uint32_t;

/// Logical write timestamp. The paper assumes a single writer with a
/// monotonically increasing counter; we order timestamps lexicographically
/// by (seq, writer) so that two writers sharing a key can never emit the
/// *same* timestamp for different values (the silent-collision bug the
/// single-integer encoding had). Sequence 0 with writer 0 is reserved for
/// the initial pair <0, bottom>; the implicit constructor keeps literal
/// timestamps (`Timestamp{3}`, `at(1, rnd)`) meaning "seq by writer 0".
struct Timestamp {
  std::uint64_t seq{0};
  std::uint32_t writer{0};

  constexpr Timestamp() = default;
  constexpr Timestamp(std::uint64_t s) : seq(s) {}  // NOLINT(google-explicit-constructor)
  constexpr Timestamp(std::uint64_t s, std::uint32_t w) : seq(s), writer(w) {}

  friend constexpr bool operator==(const Timestamp&, const Timestamp&) = default;
  /// Lexicographic (seq, writer); used for highest-candidate selection and
  /// as the history-row ordering.
  friend constexpr auto operator<=>(const Timestamp&, const Timestamp&) = default;
};

[[nodiscard]] inline std::string to_string(const Timestamp& ts) {
  return ts.writer == 0 ? std::to_string(ts.seq)
                        : std::to_string(ts.seq) + "." + std::to_string(ts.writer);
}

/// Consensus view number. View 0 is the paper's `initView`.
using ViewNumber = std::uint64_t;

/// Round number inside a storage operation (1, 2 or 3) or a storage history
/// "slot" index; the paper indexes history[ts, rnd] with rnd in {1,2,3}.
using RoundNumber = std::uint32_t;

/// Index of a quorum within a refined quorum system (core/rqs.hpp). Both
/// protocols ship quorum ids inside messages (the paper's QC'2 sets and
/// UpdateQ), so the id type lives with the other vocabulary types.
using QuorumId = std::uint32_t;

inline constexpr QuorumId kInvalidQuorum = static_cast<QuorumId>(-1);

/// Values stored / proposed. The paper's domain D extended with bottom.
/// We use a sentinel for bottom so a Value is trivially copyable; the public
/// API exposes is_bottom() helpers instead of the raw sentinel.
using Value = std::int64_t;

/// The initial value of the storage ("bottom", not in D).
inline constexpr Value kBottom = std::numeric_limits<Value>::min();

/// True iff v is the reserved bottom value.
[[nodiscard]] constexpr bool is_bottom(Value v) noexcept { return v == kBottom; }

/// Renders a value, printing bottom as the conventional symbol.
[[nodiscard]] inline std::string value_to_string(Value v) {
  return is_bottom(v) ? std::string{"_|_"} : std::to_string(v);
}

/// A timestamp/value pair as manipulated by the storage protocol
/// (the paper's c = <c.ts, c.val>).
struct TsValue {
  Timestamp ts{0};
  Value val{kBottom};

  friend bool operator==(const TsValue&, const TsValue&) = default;
  /// Ordering by timestamp first; used when selecting the highest candidate.
  friend auto operator<=>(const TsValue&, const TsValue&) = default;
};

/// The initial pair stored in every history slot: <0, bottom>.
inline constexpr TsValue kInitialPair{0, kBottom};

// Vocabulary types ride inside pooled POD-ish messages and the simulator's
// trivially-copyable event union; keep them trivial so copying a message
// payload or a history row never runs code.
static_assert(std::is_trivially_copyable_v<Timestamp> &&
              std::is_trivially_destructible_v<Timestamp>);
static_assert(std::is_trivially_copyable_v<TsValue> &&
              std::is_trivially_destructible_v<TsValue>);

[[nodiscard]] inline std::string to_string(const TsValue& c) {
  return "<" + to_string(c.ts) + "," + value_to_string(c.val) + ">";
}

}  // namespace rqs
