#include "ptg/taskpool.h"

#include "support/error.h"

namespace mp::ptg {

const DataBuf& TaskCtx::input(int slot) const {
  MP_REQUIRE(slot >= 0 && static_cast<size_t>(slot) < inputs_.size(),
             "TaskCtx::input: bad slot");
  MP_REQUIRE(inputs_[static_cast<size_t>(slot)] != nullptr,
             "TaskCtx::input: slot was never deposited");
  return inputs_[static_cast<size_t>(slot)];
}

namespace {

/// True when `buf` is the only handle to its vector, with this thread
/// ordered after every former holder's last access to it. Once the count
/// reads 1 no other handle exists that could be copied again, so the answer
/// cannot go stale. But use_count() is a relaxed load, so a 1 alone orders
/// nothing: each former holder dropped its handle with an acq_rel decrement
/// after its last read, and only an acquire synchronizes with those. Copying
/// the handle provides it: libstdc++ increments the count with an acq_rel
/// RMW on the same counter, an acquire that TSan also sees (GCC 12 rejects a
/// standalone fence under -fsanitize=thread).
bool sole_owner(const DataBuf& buf) {
  if (buf.use_count() != 1) return false;
  const DataBuf acquire = buf;
  return true;
}

}  // namespace

DataBuf TaskCtx::take_input(int slot) {
  MP_REQUIRE(slot >= 0 && static_cast<size_t>(slot) < inputs_.size(),
             "TaskCtx::take_input: bad slot");
  DataBuf buf = std::move(inputs_[static_cast<size_t>(slot)]);
  MP_REQUIRE(buf != nullptr,
             "TaskCtx::take_input: slot was never deposited or was already "
             "taken");
  if (!buf->borrowed() && sole_owner(buf)) return buf;
  // Copy on write: a view is read-only whoever holds it, and another holder
  // of an owned buffer (a fan-out sibling, a message still in flight,
  // retained recovery state) may still read this very object.
  auto copy = make_buf_pooled(0);
  copy->assign(buf->begin(), buf->end());
  return copy;
}

void TaskCtx::set_output(int slot, DataBuf buf) {
  MP_REQUIRE(slot >= 0 && slot < 128, "TaskCtx::set_output: bad slot");
  std::vector<DataBuf>& outs = *outputs_;
  if (outs.size() <= static_cast<size_t>(slot)) {
    outs.resize(static_cast<size_t>(slot) + 1);
  }
  outs[static_cast<size_t>(slot)] = std::move(buf);
}

int16_t Taskpool::add_class(TaskClass tc) {
  tc.cls = static_cast<int16_t>(classes_.size());
  classes_.push_back(std::move(tc));
  return classes_.back().cls;
}

const TaskClass& Taskpool::cls(int16_t id) const {
  MP_REQUIRE(id >= 0 && static_cast<size_t>(id) < classes_.size(),
             "Taskpool::cls: bad class id");
  return classes_[static_cast<size_t>(id)];
}

int16_t Taskpool::find(const std::string& name) const {
  for (const auto& c : classes_) {
    if (c.name == name) return c.cls;
  }
  return -1;
}

void Taskpool::validate() const {
  for (const auto& c : classes_) {
    MP_REQUIRE(!c.name.empty(), "Taskpool: class with empty name");
    MP_REQUIRE(static_cast<bool>(c.rank_of),
               "Taskpool: class '" + c.name + "' missing rank_of");
    MP_REQUIRE(static_cast<bool>(c.num_task_inputs),
               "Taskpool: class '" + c.name + "' missing num_task_inputs");
    MP_REQUIRE(static_cast<bool>(c.enumerate_rank),
               "Taskpool: class '" + c.name + "' missing enumerate_rank");
  }
}

}  // namespace mp::ptg
