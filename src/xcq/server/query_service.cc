#include "xcq/server/query_service.h"

#include <utility>

#include "xcq/util/string_util.h"

namespace xcq::server {

QueryService::QueryService(DocumentStore* store, ServiceOptions options)
    : store_(store), options_(options) {
  obs::Registry* registry = store_->registry();
  queue_depth_gauge_ = registry->GetGauge(
      "xcq_server_queue_depth", {},
      "Tasks waiting in the QueryService submission queue");
  queue_limit_gauge_ = registry->GetGauge(
      "xcq_server_queue_limit", {},
      "Configured submission-queue bound (0 = unbounded)");
  rejections_total_ = registry->GetCounter(
      "xcq_server_queue_rejections_total", {},
      "Admission-controlled submissions refused because the queue was full");
  inflight_gauge_ =
      registry->GetGauge("xcq_server_jobs_inflight", {},
                         "Tasks currently executing on worker threads");
  shed_counter_ = registry->GetCounter(
      "xcq_server_requests_shed_total", {},
      "Requests shed because their deadline expired before execution");
  cancelled_counter_ = registry->GetCounter(
      "xcq_server_requests_cancelled_total", {},
      "Requests cancelled (client disconnect) while queued or in flight");
  deadline_exceeded_counter_ = registry->GetCounter(
      "xcq_server_deadline_exceeded_total", {},
      "Requests that started executing and hit their deadline mid-flight");
  queue_limit_gauge_->Set(static_cast<double>(options_.queue_depth));
  const size_t n = options_.worker_threads < 1 ? 1 : options_.worker_threads;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void QueryService::EnqueueLocked(WorkItem task) {
  ++pending_[task.document].queued;
  queue_.push_back(std::move(task));
  ++jobs_submitted_;
  queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
}

bool QueryService::TrySubmitWork(WorkItem item) {
  WorkItem displaced;
  Status displaced_status;
  bool have_displaced = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ++rejected_;
      rejections_total_->Increment();
      return false;
    }
    if (options_.queue_depth > 0 && queue_.size() >= options_.queue_depth) {
      // Before refusing, try to shed one queued task that is already
      // dead (deadline passed / client gone): its reply is still owed,
      // but its evaluation never will be, so a fresh live request
      // should take the slot — an expired-request storm must not wedge
      // the queue ahead of live work.
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->token == nullptr) continue;
        const Status status = it->token->Check();
        if (status.ok()) continue;
        displaced = std::move(*it);
        queue_.erase(it);
        displaced_status = status;
        have_displaced = true;
        CountDeadLocked(displaced.document, displaced_status);
        break;
      }
      if (!have_displaced) {
        ++rejected_;
        rejections_total_->Increment();
        return false;
      }
    }
    EnqueueLocked(std::move(item));
  }
  cv_.notify_one();
  if (have_displaced && displaced.shed) displaced.shed(displaced_status);
  return true;
}

void QueryService::CountDeadLocked(const std::string& document,
                                   const Status& status) {
  Pending& pending = pending_[document];
  if (pending.queued > 0) --pending.queued;
  if (pending.queued == 0 && pending.inflight == 0) {
    pending_.erase(document);
  }
  if (status.code() == StatusCode::kCancelled) {
    ++cancelled_total_;
    ++shed_counts_[document].cancelled;
    cancelled_counter_->Increment();
  } else {
    ++shed_total_;
    ++shed_counts_[document].shed;
    shed_counter_->Increment();
  }
  queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
}

void QueryService::NoteRequestError(const std::string& document,
                                    StatusCode code) {
  if (code == StatusCode::kCancelled) {
    std::lock_guard<std::mutex> lock(mu_);
    ++cancelled_total_;
    ++shed_counts_[document].cancelled;
    cancelled_counter_->Increment();
  } else if (code == StatusCode::kDeadlineExceeded) {
    // Ran and timed out mid-flight: not shed (the point of shedding is
    // that it never ran), so only the deadline family moves.
    deadline_exceeded_counter_->Increment();
  }
}

namespace {

/// The evaluation proper, factored out so `Execute` can wrap every exit
/// path with the post-evaluation deadline poll and error accounting.
QueryResponse ExecuteJob(DocumentStore* store, const QueryJob& job) {
  if (job.queries.empty()) {
    return Status::InvalidArgument("job carries no queries");
  }
  // Acquire, not Find: a warm (spill-backed) document is faulted back
  // in here, on a worker thread — single-flight per document, so a
  // stampede of queries does one spill read.
  XCQ_ASSIGN_OR_RETURN(const std::shared_ptr<StoredDocument> doc,
                       store->Acquire(job.document));
  QueryControl control;
  control.cancel = job.token.get();
  if (job.batch || job.queries.size() > 1) {
    return doc->Batch(job.queries, control);
  }
  XCQ_ASSIGN_OR_RETURN(const QueryOutcome outcome,
                       doc->Query(job.queries.front(), control));
  return std::vector<QueryOutcome>{outcome};
}

}  // namespace

QueryResponse QueryService::Execute(const QueryJob& job) {
  QueryResponse response = ExecuteJob(store_, job);
  if (response.ok() && job.token != nullptr) {
    // The deadline also covers reply serialization: one more poll here
    // turns an on-time evaluation whose deadline has since passed into
    // the canonical error before any reply bytes are formatted.
    const Status post = job.token->Check();
    if (!post.ok()) response = QueryResponse(post);
  }
  if (!response.ok()) {
    NoteRequestError(job.document, response.status().code());
  }
  return response;
}

uint64_t QueryService::jobs_submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_submitted_;
}

uint64_t QueryService::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t QueryService::jobs_inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

uint64_t QueryService::shed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_total_;
}

uint64_t QueryService::cancelled_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_total_;
}

void QueryService::ShedForDocument(const std::string& document,
                                   uint64_t* shed,
                                   uint64_t* cancelled) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = shed_counts_.find(document);
  if (it == shed_counts_.end()) {
    *shed = 0;
    *cancelled = 0;
    return;
  }
  *shed = it->second.shed;
  *cancelled = it->second.cancelled;
}

void QueryService::PendingForDocument(const std::string& document,
                                      uint64_t* queued,
                                      uint64_t* inflight) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(document);
  if (it == pending_.end()) {
    *queued = 0;
    *inflight = 0;
    return;
  }
  *queued = it->second.queued;
  *inflight = it->second.inflight;
}

void QueryService::WorkerLoop() {
  while (true) {
    WorkItem task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      // Never run a dead request: a task whose deadline passed (or
      // whose client vanished) while queued is shed here, at dequeue —
      // the reply is still owed (pipelined responses are strictly
      // sequence-ordered), but the evaluation is skipped entirely.
      if (task.token != nullptr) {
        const Status status = task.token->Check();
        if (!status.ok()) {
          CountDeadLocked(task.document, status);
          lock.unlock();
          if (task.shed) task.shed(status);
          continue;
        }
      }
      Pending& pending = pending_[task.document];
      --pending.queued;
      ++pending.inflight;
      ++inflight_;
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      inflight_gauge_->Set(static_cast<double>(inflight_));
    }
    task.run();
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = pending_.find(task.document);
      if (it != pending_.end()) {
        --it->second.inflight;
        if (it->second.queued == 0 && it->second.inflight == 0) {
          pending_.erase(it);
        }
      }
      --inflight_;
      inflight_gauge_->Set(static_cast<double>(inflight_));
    }
  }
}

}  // namespace xcq::server
