#include "support/analysis.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace mp::analysis {

const char* finding_code(FindingKind k) {
  switch (k) {
    case FindingKind::kDoubleRelease: return "MPA001";
    case FindingKind::kUseAfterRelease: return "MPA002";
    case FindingKind::kLivePoolHandout: return "MPA003";
    case FindingKind::kDataRace: return "MPA004";
    case FindingKind::kTlsViolation: return "MPA006";
    case FindingKind::kMigratedAccess: return "MPA007";
    case FindingKind::kUseAfterRecovery: return "MPA008";
  }
  return "MPA???";
}

namespace {

/// A vector clock indexed by dense thread id. Missing entries are 0.
using Clock = std::vector<uint64_t>;

void join_into(Clock& dst, const Clock& src) {
  if (src.size() > dst.size()) dst.resize(src.size(), 0);
  for (size_t i = 0; i < src.size(); ++i) dst[i] = std::max(dst[i], src[i]);
}

uint64_t clock_of(const Clock& c, int tid) {
  return static_cast<size_t>(tid) < c.size() ? c[static_cast<size_t>(tid)]
                                             : 0;
}

/// One recorded access epoch: thread `tid` at its local clock `clk`,
/// holding `locks` at the time.
struct Epoch {
  int tid = -1;
  uint64_t clk = 0;
  std::vector<const void*> locks;
  std::string task;
};

bool locks_intersect(const std::vector<const void*>& a,
                     const std::vector<const void*>& b) {
  for (const void* x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

}  // namespace

struct LifecycleChecker::Impl {
  struct ThreadState {
    Clock vc;
    std::vector<const void*> lockset;
    std::string task;
  };
  struct ObjState {
    bool live = false;
    bool migrated = false;  ///< contents handed to the fabric, still live
    bool rehomed = false;   ///< recovery took it back after the holder died
    const char* kind = "?";
    Epoch last_write;
    Epoch rehome;  ///< epoch of the recovery re-home (for MPA008 ordering)
    std::vector<Epoch> reads;
    std::string destroy_task;  ///< who released it (for MPA002 reports)
    std::string migrate_task;  ///< who handed it off (for MPA007 reports)
    std::string rehome_task;   ///< who re-homed it (for MPA008 reports)
  };

  std::mutex mu;
  std::map<std::thread::id, int> tids;
  std::vector<ThreadState> threads;
  std::unordered_map<const void*, ObjState> objects;
  std::unordered_map<const void*, Clock> channels;
  std::unordered_map<const void*, Clock> lock_clocks;
  std::unordered_map<const void*, int> tls_owner;
  std::vector<Finding> findings;
  static constexpr size_t kMaxFindings = 1000;

  // Callers hold `mu`.
  int tid() {
    const auto id = std::this_thread::get_id();
    auto it = tids.find(id);
    if (it != tids.end()) return it->second;
    const int t = static_cast<int>(threads.size());
    tids.emplace(id, t);
    threads.emplace_back();
    threads.back().vc.resize(static_cast<size_t>(t) + 1, 0);
    threads.back().vc[static_cast<size_t>(t)] = 1;
    return t;
  }

  ThreadState& me() { return threads[static_cast<size_t>(tid())]; }

  Epoch epoch_here() {
    const int t = tid();
    ThreadState& ts = threads[static_cast<size_t>(t)];
    return Epoch{t, ts.vc[static_cast<size_t>(t)], ts.lockset, ts.task};
  }

  /// True when `e` happened-before the current thread's view.
  bool ordered(const Epoch& e) {
    return e.clk <= clock_of(me().vc, e.tid);
  }

  void add_finding(FindingKind kind, const std::string& msg) {
    if (findings.size() >= kMaxFindings) return;
    Finding f;
    f.kind = kind;
    f.task = me().task;
    std::ostringstream os;
    os << finding_code(kind) << ": " << msg;
    if (!f.task.empty()) os << " [in task " << f.task << "]";
    f.message = os.str();
    findings.push_back(std::move(f));
  }

  void check_conflict(ObjState& o, bool is_write, const void* obj) {
    const int t = tid();
    // A write conflicts with every previous epoch; a read only with the
    // last write.
    auto racy = [&](const Epoch& prev) {
      return prev.tid >= 0 && prev.tid != t && !ordered(prev) &&
             !locks_intersect(prev.locks, me().lockset);
    };
    if (racy(o.last_write)) {
      std::ostringstream os;
      os << "data race on " << o.kind << " " << obj << ": "
         << (is_write ? "write" : "read") << " unordered with write by task "
         << (o.last_write.task.empty() ? "<none>" : o.last_write.task);
      add_finding(FindingKind::kDataRace, os.str());
    }
    if (is_write) {
      for (const Epoch& r : o.reads) {
        if (racy(r)) {
          std::ostringstream os;
          os << "data race on " << o.kind << " " << obj
             << ": write unordered with read by task "
             << (r.task.empty() ? "<none>" : r.task);
          add_finding(FindingKind::kDataRace, os.str());
          break;
        }
      }
    }
  }

  void record_access(ObjState& o, bool is_write) {
    Epoch e = epoch_here();
    if (is_write) {
      o.last_write = std::move(e);
      o.reads.clear();
    } else {
      for (Epoch& r : o.reads) {
        if (r.tid == e.tid) {
          r = std::move(e);
          return;
        }
      }
      o.reads.push_back(std::move(e));
    }
  }
};

LifecycleChecker::LifecycleChecker() : impl_(new Impl) {}
LifecycleChecker::~LifecycleChecker() { delete impl_; }

LifecycleChecker& LifecycleChecker::instance() {
  // Leaked so annotations from late thread teardown (pooled-buffer deleters
  // running after main) never touch a destroyed checker.
  static LifecycleChecker* checker = new LifecycleChecker;
  return *checker;
}

void LifecycleChecker::task_begin(const char* cls, const int32_t* params,
                                  int nparams) {
  std::lock_guard lock(impl_->mu);
  std::ostringstream os;
  os << cls << "(";
  for (int i = 0; i < nparams; ++i) os << (i ? "," : "") << params[i];
  os << ")";
  impl_->me().task = os.str();
}

void LifecycleChecker::task_end() {
  std::lock_guard lock(impl_->mu);
  impl_->me().task.clear();
}

void LifecycleChecker::obj_create(const void* obj, const char* kind) {
  std::lock_guard lock(impl_->mu);
  auto& o = impl_->objects[obj];
  if (o.live) {
    std::ostringstream os;
    os << "create of still-live " << kind << " " << obj
       << " (pool handed out a buffer that was never released)";
    impl_->add_finding(FindingKind::kLivePoolHandout, os.str());
  }
  o = Impl::ObjState{};
  o.live = true;
  o.kind = kind;
  o.last_write = impl_->epoch_here();  // creation initializes the contents
}

void LifecycleChecker::obj_destroy(const void* obj, const char* kind) {
  std::lock_guard lock(impl_->mu);
  auto it = impl_->objects.find(obj);
  if (it == impl_->objects.end()) return;  // created before a reset()
  if (!it->second.live) {
    std::ostringstream os;
    os << "double release of " << kind << " " << obj;
    if (!it->second.destroy_task.empty()) {
      os << " (first released in task " << it->second.destroy_task << ")";
    }
    impl_->add_finding(FindingKind::kDoubleRelease, os.str());
    return;
  }
  // No conflict check here: DataBufs are shared_ptr-managed, so the last
  // release is ordered after every other holder's accesses by the refcount
  // itself, wherever it runs. The lifecycle state flip below is what arms
  // MPA001/MPA002 for anything that touches the object afterwards.
  // Destroying a migrated buffer is the expected end of its life on this
  // rank (hand-off to the fabric is not a release).
  it->second.live = false;
  it->second.migrated = false;
  it->second.destroy_task = impl_->me().task;
}

void LifecycleChecker::obj_migrate(const void* obj, const char* kind) {
  std::lock_guard lock(impl_->mu);
  auto it = impl_->objects.find(obj);
  if (it == impl_->objects.end()) return;  // untracked allocation
  auto& o = it->second;
  if (!o.live) {
    std::ostringstream os;
    os << "migration of released " << kind << " " << obj;
    if (!o.destroy_task.empty()) {
      os << " (released in task " << o.destroy_task << ")";
    }
    impl_->add_finding(FindingKind::kMigratedAccess, os.str());
    return;
  }
  if (o.migrated) {
    std::ostringstream os;
    os << "double migration of " << kind << " " << obj << " (first handed off"
       << (o.migrate_task.empty() ? "" : " in task " + o.migrate_task) << ")";
    impl_->add_finding(FindingKind::kMigratedAccess, os.str());
    return;
  }
  o.migrated = true;
  o.migrate_task = impl_->me().task;
}

void LifecycleChecker::obj_receive(const void* obj, const char* kind) {
  (void)kind;
  std::lock_guard lock(impl_->mu);
  auto it = impl_->objects.find(obj);
  if (it == impl_->objects.end()) return;  // untracked allocation
  it->second.migrated = false;
}

void LifecycleChecker::obj_rehome(const void* obj, const char* kind) {
  std::lock_guard lock(impl_->mu);
  auto it = impl_->objects.find(obj);
  if (it == impl_->objects.end()) return;  // untracked allocation
  auto& o = it->second;
  if (!o.live) {
    std::ostringstream os;
    os << "recovery re-home of released " << kind << " " << obj;
    if (!o.destroy_task.empty()) {
      os << " (released in task " << o.destroy_task << ")";
    }
    impl_->add_finding(FindingKind::kUseAfterRecovery, os.str());
    return;
  }
  // Recovery reclaims the buffer from a dead holder: the MPA007 hand-off bit
  // comes back off, and from here on every access must be ordered after this
  // epoch — an unordered access is a handout that survived from before the
  // death and may still be read by stale machinery (MPA008).
  o.migrated = false;
  o.rehomed = true;
  o.rehome = impl_->epoch_here();
  o.rehome_task = impl_->me().task;
}

void LifecycleChecker::obj_read(const void* obj, const char* kind) {
  std::lock_guard lock(impl_->mu);
  auto it = impl_->objects.find(obj);
  if (it == impl_->objects.end()) return;  // untracked allocation
  if (!it->second.live) {
    std::ostringstream os;
    os << "use after release of " << kind << " " << obj;
    if (!it->second.destroy_task.empty()) {
      os << " (released in task " << it->second.destroy_task << ")";
    }
    impl_->add_finding(FindingKind::kUseAfterRelease, os.str());
    return;
  }
  if (it->second.migrated) {
    std::ostringstream os;
    os << "read of migrated " << kind << " " << obj << " (handed off"
       << (it->second.migrate_task.empty()
               ? ""
               : " in task " + it->second.migrate_task)
       << ", not yet released)";
    impl_->add_finding(FindingKind::kMigratedAccess, os.str());
    return;
  }
  if (it->second.rehomed && !impl_->ordered(it->second.rehome) &&
      !locks_intersect(it->second.rehome.locks, impl_->me().lockset)) {
    std::ostringstream os;
    os << "use after recovery: read of re-homed " << kind << " " << obj
       << " unordered with its recovery re-home"
       << (it->second.rehome_task.empty()
               ? ""
               : " (re-homed in task " + it->second.rehome_task + ")");
    impl_->add_finding(FindingKind::kUseAfterRecovery, os.str());
    return;
  }
  impl_->check_conflict(it->second, /*is_write=*/false, obj);
  impl_->record_access(it->second, /*is_write=*/false);
}

void LifecycleChecker::obj_write(const void* obj, const char* kind) {
  std::lock_guard lock(impl_->mu);
  auto it = impl_->objects.find(obj);
  if (it == impl_->objects.end()) return;  // untracked allocation
  if (!it->second.live) {
    std::ostringstream os;
    os << "use after release of " << kind << " " << obj << " (write)";
    impl_->add_finding(FindingKind::kUseAfterRelease, os.str());
    return;
  }
  if (it->second.migrated) {
    std::ostringstream os;
    os << "write to migrated " << kind << " " << obj << " (handed off"
       << (it->second.migrate_task.empty()
               ? ""
               : " in task " + it->second.migrate_task)
       << ", not yet released)";
    impl_->add_finding(FindingKind::kMigratedAccess, os.str());
    return;
  }
  if (it->second.rehomed && !impl_->ordered(it->second.rehome) &&
      !locks_intersect(it->second.rehome.locks, impl_->me().lockset)) {
    std::ostringstream os;
    os << "use after recovery: write to re-homed " << kind << " " << obj
       << " unordered with its recovery re-home"
       << (it->second.rehome_task.empty()
               ? ""
               : " (re-homed in task " + it->second.rehome_task + ")");
    impl_->add_finding(FindingKind::kUseAfterRecovery, os.str());
    return;
  }
  impl_->check_conflict(it->second, /*is_write=*/true, obj);
  impl_->record_access(it->second, /*is_write=*/true);
}

void LifecycleChecker::channel_send(const void* channel) {
  std::lock_guard lock(impl_->mu);
  const int t = impl_->tid();
  auto& ts = impl_->threads[static_cast<size_t>(t)];
  join_into(impl_->channels[channel], ts.vc);
  ts.vc[static_cast<size_t>(t)]++;
}

void LifecycleChecker::channel_recv(const void* channel) {
  std::lock_guard lock(impl_->mu);
  auto it = impl_->channels.find(channel);
  if (it == impl_->channels.end()) return;
  join_into(impl_->me().vc, it->second);
}

void LifecycleChecker::lock_acquired(const void* mutex) {
  std::lock_guard lock(impl_->mu);
  auto& ts = impl_->me();
  ts.lockset.push_back(mutex);
  auto it = impl_->lock_clocks.find(mutex);
  if (it != impl_->lock_clocks.end()) join_into(ts.vc, it->second);
}

void LifecycleChecker::lock_released(const void* mutex) {
  std::lock_guard lock(impl_->mu);
  const int t = impl_->tid();
  auto& ts = impl_->threads[static_cast<size_t>(t)];
  auto pos = std::find(ts.lockset.rbegin(), ts.lockset.rend(), mutex);
  if (pos != ts.lockset.rend()) ts.lockset.erase(std::next(pos).base());
  join_into(impl_->lock_clocks[mutex], ts.vc);
  ts.vc[static_cast<size_t>(t)]++;
}

void LifecycleChecker::tls_release(const void* obj) {
  std::lock_guard lock(impl_->mu);
  impl_->tls_owner.erase(obj);
}

void LifecycleChecker::tls_guard(const void* obj) {
  std::lock_guard lock(impl_->mu);
  const int t = impl_->tid();
  auto [it, inserted] = impl_->tls_owner.emplace(obj, t);
  if (!inserted && it->second != t) {
    std::ostringstream os;
    os << "thread-local object " << obj << " owned by thread " << it->second
       << " accessed from thread " << t;
    impl_->add_finding(FindingKind::kTlsViolation, os.str());
  }
}

size_t LifecycleChecker::finding_count() const {
  std::lock_guard lock(impl_->mu);
  return impl_->findings.size();
}

std::vector<Finding> LifecycleChecker::findings() const {
  std::lock_guard lock(impl_->mu);
  return impl_->findings;
}

std::string LifecycleChecker::report() const {
  std::lock_guard lock(impl_->mu);
  if (impl_->findings.empty()) return "";
  std::ostringstream os;
  os << "mp-analysis: " << impl_->findings.size() << " finding(s)\n";
  for (const Finding& f : impl_->findings) os << "  " << f.message << "\n";
  return os.str();
}

void LifecycleChecker::reset() {
  std::lock_guard lock(impl_->mu);
  impl_->objects.clear();
  impl_->channels.clear();
  impl_->lock_clocks.clear();
  impl_->tls_owner.clear();
  impl_->findings.clear();
}

}  // namespace mp::analysis
