#include "serve/scheduler.h"

namespace zkp::serve {

RequestQueue::PushResult
RequestQueue::tryPush(std::unique_ptr<Job>& job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_)
            return PushResult::Closed;
        if (interactive_.size() + batch_.size() >= capacity_)
            return PushResult::Full;
        auto& q = job->priority == Priority::Interactive
                      ? interactive_
                      : batch_;
        q.push_back(std::move(job));
    }
    cv_.notify_one();
    return PushResult::Accepted;
}

std::unique_ptr<Job>
RequestQueue::pop()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
        return closed_ || !interactive_.empty() || !batch_.empty();
    });
    auto& q = !interactive_.empty() ? interactive_ : batch_;
    if (q.empty())
        return nullptr; // closed and drained
    auto job = std::move(q.front());
    q.pop_front();
    job->tl.dequeued = Timeline::Clock::now();
    return job;
}

std::vector<std::unique_ptr<Job>>
RequestQueue::takeVerifyBatch(const std::string& circuit,
                              std::size_t max)
{
    std::vector<std::unique_ptr<Job>> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto* q : {&interactive_, &batch_}) {
        for (auto it = q->begin();
             it != q->end() && out.size() < max;) {
            if ((*it)->kind == Job::Kind::Verify &&
                (*it)->circuit == circuit) {
                (*it)->tl.dequeued = Timeline::Clock::now();
                out.push_back(std::move(*it));
                it = q->erase(it);
            } else {
                ++it;
            }
        }
    }
    return out;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::vector<std::unique_ptr<Job>>
RequestQueue::drainAll()
{
    std::vector<std::unique_ptr<Job>> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto* q : {&interactive_, &batch_}) {
        for (auto& j : *q)
            out.push_back(std::move(j));
        q->clear();
    }
    return out;
}

std::size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return interactive_.size() + batch_.size();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

} // namespace zkp::serve
