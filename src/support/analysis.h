// Dynamic lifecycle / lockset / happens-before checker and the
// MP_ANNOTATE_* instrumentation macros (the runtime half of mp-verify).
//
// The PTG runtime hand-rolls exactly the concurrency that sanitizers are
// weakest at: pooled DataBufs whose storage is recycled (so a use-after-
// release lands in a *new live* buffer and TSan sees an ordinary access),
// buffer handles that cross ranks inside messages, and thread-local
// workspace pools that must never leak across threads. The
// LifecycleChecker tracks those protocols symbolically:
//
//   - object lifecycle  — create/destroy per pooled DataBuf; double release
//     and use-after-release are reported even after the allocator or the
//     BufPool has recycled the address (MPA001/MPA002/MPA003); a buffer
//     handed off to another rank is off limits until the receiver takes the
//     handle over (MPA007).
//   - vector-clock happens-before — every legitimate cross-thread handoff
//     (mailbox push/pop, each worker's ready heap, pending-deposit shard,
//     outbox) is an annotated channel; an access to a tracked object that is
//     not ordered by the channel graph and shares no lock with the previous
//     access is a data race (MPA004).
//   - TLS ownership — thread-local pools accessed from a foreign thread
//     (MPA006).
//   - locksets — annotated lock acquire/release maintain a per-thread
//     lockset; a common lock between two conflicting accesses suppresses
//     the race report (classic hybrid detector) and release edges also
//     enter the happens-before graph.
//
// The checker itself always compiles (tests drive it directly); the
// MP_ANNOTATE_* macros in the runtime hot paths compile to nothing unless
// the build sets -DMP_ANALYSIS=ON (cmake option MP_ANALYSIS). A healthy run
// must finish with finding_count() == 0; see DESIGN.md §8 for the macro
// contract and how to annotate a new subsystem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mp::analysis {

/// Stable diagnostic codes; negative tests assert on these.
enum class FindingKind {
  kDoubleRelease,     ///< MPA001: destroy of an object not currently live
  kUseAfterRelease,   ///< MPA002: access to an object after its release
  kLivePoolHandout,   ///< MPA003: create reported for a still-live object
  kDataRace,          ///< MPA004: unordered cross-thread access, no common lock
  // MPA005 (work-stealing deque ownership) is retired with the deque.
  kTlsViolation,      ///< MPA006: thread-local object used by a foreign thread
  kMigratedAccess,    ///< MPA007: buffer used after hand-off to the fabric
  kUseAfterRecovery,  ///< MPA008: access unordered with a recovery re-home
};

const char* finding_code(FindingKind k);  ///< "MPA001" ...

struct Finding {
  FindingKind kind;
  std::string message;  ///< full diagnostic, includes code and task names
  std::string task;     ///< symbolic task active at detection ("GEMM(3,1)")
};

class LifecycleChecker {
 public:
  /// Process-wide checker instance used by the MP_ANNOTATE_* macros.
  static LifecycleChecker& instance();

  // -- task identity (symbolic names in reports) --
  void task_begin(const char* cls, const int32_t* params, int nparams);
  void task_end();

  // -- object lifecycle (kind is a static string, e.g. "DataBuf") --
  void obj_create(const void* obj, const char* kind);
  void obj_destroy(const void* obj, const char* kind);
  void obj_read(const void* obj, const char* kind);
  void obj_write(const void* obj, const char* kind);
  /// The object's contents were serialized into the fabric for migration to
  /// another rank. Hand-off is NOT a release: the local reference must
  /// still be destroyed exactly once (obj_destroy), but any read or write
  /// after this point — the remote side owns the data now — is reported as
  /// MPA007, as is migrating the same live object twice.
  void obj_migrate(const void* obj, const char* kind);
  /// The receiving side of a migration took the handle over: the object
  /// itself travelled (an in-process message segment), so the receiver now
  /// owns the data and the MPA007 hand-off bit comes back off. Its accesses
  /// are checked like any other from here on — they reached this thread
  /// through annotated channels. A no-op for an object never migrated.
  void obj_receive(const void* obj, const char* kind);
  /// Rank-failure recovery took the object back: a previously migrated (or
  /// merely outstanding) buffer was re-homed to this rank because its remote
  /// holder died. Clears the migrated bit and records a re-home epoch; any
  /// later access that is not happens-after the re-home (a live handout from
  /// the dead epoch) and shares no lock with it is reported as MPA008.
  void obj_rehome(const void* obj, const char* kind);

  // -- happens-before channels (send on hand-off, recv on take-over) --
  void channel_send(const void* channel);
  void channel_recv(const void* channel);

  // -- locksets --
  void lock_acquired(const void* mutex);
  void lock_released(const void* mutex);

  // -- thread-local ownership --
  void tls_guard(const void* obj);
  /// Un-register a thread-local object (its destructor ran). Required so a
  /// later thread whose TLS block recycles the address is not reported.
  void tls_release(const void* obj);

  // -- results --
  size_t finding_count() const;
  std::vector<Finding> findings() const;
  std::string report() const;  ///< human-readable summary, "" when clean

  /// Drop all findings and tracked state (test isolation). Not safe while
  /// annotated threads are running.
  void reset();

 private:
  LifecycleChecker();
  ~LifecycleChecker();
  LifecycleChecker(const LifecycleChecker&) = delete;
  LifecycleChecker& operator=(const LifecycleChecker&) = delete;

  struct Impl;
  Impl* impl_;
};

}  // namespace mp::analysis

// ---- instrumentation macros ------------------------------------------------
// Compiled in only under -DMP_ANALYSIS=ON; otherwise every annotation is a
// no-op expression so the hot paths carry zero cost.
#if defined(MP_ANALYSIS) && MP_ANALYSIS
#define MP_ANNOTATE(call) (::mp::analysis::LifecycleChecker::instance().call)
#else
#define MP_ANNOTATE(call) ((void)0)
#endif

#define MP_ANNOTATE_TASK_BEGIN(cls, params, n) \
  MP_ANNOTATE(task_begin((cls), (params), (n)))
#define MP_ANNOTATE_TASK_END() MP_ANNOTATE(task_end())
#define MP_ANNOTATE_BUF_CREATE(p) MP_ANNOTATE(obj_create((p), "DataBuf"))
#define MP_ANNOTATE_BUF_DESTROY(p) MP_ANNOTATE(obj_destroy((p), "DataBuf"))
#define MP_ANNOTATE_BUF_READ(p) MP_ANNOTATE(obj_read((p), "DataBuf"))
#define MP_ANNOTATE_BUF_WRITE(p) MP_ANNOTATE(obj_write((p), "DataBuf"))
#define MP_ANNOTATE_BUF_MIGRATE(p) MP_ANNOTATE(obj_migrate((p), "DataBuf"))
#define MP_ANNOTATE_BUF_REHOME(p) MP_ANNOTATE(obj_rehome((p), "DataBuf"))
#define MP_ANNOTATE_BUF_RECEIVE(p) MP_ANNOTATE(obj_receive((p), "DataBuf"))
#define MP_ANNOTATE_CHANNEL_SEND(ch) MP_ANNOTATE(channel_send((ch)))
#define MP_ANNOTATE_CHANNEL_RECV(ch) MP_ANNOTATE(channel_recv((ch)))
#define MP_ANNOTATE_LOCK_ACQUIRED(mu) MP_ANNOTATE(lock_acquired((mu)))
#define MP_ANNOTATE_LOCK_RELEASED(mu) MP_ANNOTATE(lock_released((mu)))
#define MP_ANNOTATE_TLS_GUARD(obj) MP_ANNOTATE(tls_guard((obj)))
#define MP_ANNOTATE_TLS_RELEASE(obj) MP_ANNOTATE(tls_release((obj)))
