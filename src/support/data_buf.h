// The data-plane buffer handle shared by the virtual cluster (vc) and the
// PTG runtime (ptg): task outputs, task inputs and message segments are all
// the same reference-counted vector of doubles, so handing a buffer to the
// in-process fabric moves a refcount instead of the doubles.
#pragma once

#include <memory>
#include <vector>

namespace mp {

/// A reference-counted data buffer. Whoever holds the only handle may
/// mutate the vector in place; a handle held anywhere else (a fan-out
/// sibling, a message still in flight, a retained recovery copy) makes it
/// read-only for everybody — see ptg::TaskCtx::take_input.
using DataBuf = std::shared_ptr<std::vector<double>>;

}  // namespace mp
