/**
 * @file
 * A FIFO queue over one std::vector.
 *
 * Pops advance a head index; the popped prefix is compacted away once
 * the head passes half of the stored elements, and the buffer keeps its
 * capacity. A queue that is drained and refilled at a steady depth so
 * stops allocating, where std::deque allocates a fresh chunk every few
 * hundred bytes pushed.
 */

#ifndef CLOUDSEER_COMMON_HEAD_QUEUE_HPP
#define CLOUDSEER_COMMON_HEAD_QUEUE_HPP

#include <cstddef>
#include <utility>
#include <vector>

namespace cloudseer::common {

/** FIFO with deque-style front/back access and mid-queue insert. */
template <typename T>
class HeadQueue
{
  public:
    using iterator = typename std::vector<T>::iterator;
    using const_iterator = typename std::vector<T>::const_iterator;

    bool empty() const { return head == items.size(); }
    std::size_t size() const { return items.size() - head; }

    T &front() { return items[head]; }
    const T &front() const { return items[head]; }

    iterator begin() { return items.begin() + static_cast<std::ptrdiff_t>(head); }
    iterator end() { return items.end(); }
    const_iterator
    begin() const
    {
        return items.begin() + static_cast<std::ptrdiff_t>(head);
    }
    const_iterator end() const { return items.end(); }

    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        items.emplace_back(std::forward<Args>(args)...);
    }

    void push_back(T &&value) { items.push_back(std::move(value)); }

    /** Insert before `pos` (an iterator into this queue). */
    iterator
    insert(const_iterator pos, T &&value)
    {
        return items.insert(pos, std::move(value));
    }

    /** Drop the front element (the caller may have moved from it). */
    void
    pop_front()
    {
        ++head;
        if (head == items.size()) {
            items.clear();
            head = 0;
        } else if (2 * head > items.size()) {
            items.erase(items.begin(),
                        items.begin() + static_cast<std::ptrdiff_t>(head));
            head = 0;
        }
    }

    void
    clear()
    {
        items.clear();
        head = 0;
    }

  private:
    std::vector<T> items;
    std::size_t head = 0; ///< index of the front element
};

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_HEAD_QUEUE_HPP
