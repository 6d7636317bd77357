#include "util/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <vector>

namespace dnnlife::util {

struct Executor::Impl {
  std::mutex mutex;
  // Signalled on queued work, on a group draining to zero, and on stop.
  std::condition_variable wake;
  // FIFO; an item with several tokens appears once per token.
  std::deque<detail::WorkItem*> queue;
  bool stop = false;
  std::vector<std::thread> threads;

  /// Under `mutex`, on a non-empty queue: remove and return the oldest
  /// queued item of `group`, else (or with no group) the front item.
  detail::WorkItem* pop_locked(const TaskGroup* group) {
    auto it = group == nullptr
                  ? queue.end()
                  : std::find_if(queue.begin(), queue.end(),
                                 [group](const detail::WorkItem* item) {
                                   return item->group == group;
                                 });
    if (it == queue.end()) it = queue.begin();
    detail::WorkItem* item = *it;
    queue.erase(it);
    return item;
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      wake.wait(lock, [this] { return stop || !queue.empty(); });
      if (queue.empty()) return;  // stopping, and drained
      detail::WorkItem* item = pop_locked(nullptr);
      lock.unlock();
      item->execute();
      lock.lock();
    }
  }
};

Executor::Executor(unsigned threads) : impl_(std::make_unique<Impl>()) {
  const unsigned count = resolve_thread_count(threads);
  impl_->threads.reserve(count);
  for (unsigned i = 0; i < count; ++i)
    impl_->threads.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (std::thread& thread : impl_->threads) thread.join();
}

unsigned Executor::workers() const noexcept {
  return static_cast<unsigned>(impl_->threads.size());
}

void Executor::enqueue(detail::WorkItem* item, std::size_t copies) {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->queue.insert(impl_->queue.end(), copies, item);
  }
  // One copy needs one thread: a woken thread takes any queued item,
  // except a waiter whose group just drained, and that drain's
  // notify_completion wakes every parked thread.
  if (copies == 1)
    impl_->wake.notify_one();
  else
    impl_->wake.notify_all();
}

void Executor::wait_for(TaskGroup& group) {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.mutex);
  for (;;) {
    impl.wake.wait(lock, [&] {
      return group.pending_.load(std::memory_order_acquire) == 0 ||
             !impl.queue.empty();
    });
    if (group.pending_.load(std::memory_order_acquire) == 0) return;
    // Help instead of sleeping: this is what makes nested fan-outs on the
    // shared pool safe — the thread blocked in wait() executes the very
    // subtasks (or anyone else's) it would otherwise deadlock on.
    detail::WorkItem* item = impl.pop_locked(&group);
    lock.unlock();
    item->execute();
    lock.lock();
  }
}

void Executor::notify_completion() {
  // A waiter checks its group's pending count under the mutex before it
  // parks, so taking the mutex here orders this wakeup after that check.
  { const std::lock_guard<std::mutex> lock(impl_->mutex); }
  impl_->wake.notify_all();
}

// ---- session singleton -------------------------------------------------------

namespace {

// Declaration order matters: both are constant-initialized and destroyed
// in reverse order at exit, so the executor (joining its workers) dies
// before the mutex guarding it.
std::mutex session_mutex;
std::unique_ptr<Executor> session_executor;

unsigned session_env_threads() {
  const char* env = std::getenv("DNNLIFE_EXECUTOR_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(env, &end, 10);
  // Nonsense values fall back to the hardware count rather than aborting a
  // run over an environment typo; the CLI flag validates loudly instead.
  if (end == nullptr || *end != '\0' || value > 4096) return 0;
  return static_cast<unsigned>(value);
}

}  // namespace

Executor& Executor::session() {
  const std::lock_guard<std::mutex> lock(session_mutex);
  if (!session_executor)
    session_executor = std::make_unique<Executor>(session_env_threads());
  return *session_executor;
}

void Executor::configure_session(unsigned threads) {
  const std::lock_guard<std::mutex> lock(session_mutex);
  const unsigned resolved = resolve_thread_count(threads);
  if (session_executor && session_executor->workers() == resolved) return;
  session_executor.reset();  // joins the old workers before resizing
  session_executor = std::make_unique<Executor>(resolved);
}

// ---- TaskGroup ---------------------------------------------------------------

void detail::WorkItem::execute() {
  for (;;) {
    const std::uint64_t s = cursor.fetch_add(1, std::memory_order_relaxed);
    if (s >= shards) break;
    const auto [begin, end] = shard_range(n, shards, static_cast<unsigned>(s));
    if (begin == end) continue;
    try {
      run_shard(static_cast<unsigned>(s), begin, end);
    } catch (...) {
      group->record_error(std::current_exception());
    }
  }
  // Shards only run inside token loops, so when the last token retires
  // every shard has executed: finish the whole item as one group unit.
  // `this` is dead after the delete; the group pointer is saved first and
  // not touched again after finish_one (the waiter it wakes may destroy
  // the group).
  TaskGroup* const owner = group;
  if (tokens.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete this;
    owner->finish_one();
  }
}

void TaskGroup::wait() {
  executor_->wait_for(*this);
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

unsigned TaskGroup::token_count(unsigned shards, unsigned budget) const noexcept {
  // Enough tokens that every worker plus the waiting submitter can
  // participate, capped by the concurrency budget and the shard count.
  unsigned tokens = executor_->workers() + 1;
  if (tokens > shards) tokens = shards;
  if (tokens > budget) tokens = budget;
  return tokens == 0 ? 1 : tokens;
}

void TaskGroup::record_error(std::exception_ptr error) {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (!error_) error_ = std::move(error);
}

void TaskGroup::finish_one() {
  // The decrement that reaches zero releases the waiter, which may destroy
  // this group immediately — so the executor pointer must be read BEFORE
  // the decrement, and nothing of the group may be touched after it. The
  // executor itself is safe to poke: its destructor joins this worker.
  Executor* const executor = executor_;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    executor->notify_completion();
}

}  // namespace dnnlife::util
