package traffic

// Queue is a head-indexed FIFO: Pop advances the head (no memmove, which
// dominated the saturated per-job profile), Push appends, and the buffer
// compacts only when append would otherwise grow it.
type Queue[T any] struct {
	buf  []T
	head int
}

// Push appends e at the tail.
func (q *Queue[T]) Push(e T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, e)
}

// Empty reports whether the queue holds nothing.
func (q *Queue[T]) Empty() bool { return q.head == len(q.buf) }

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Head returns the oldest element; the queue must not be empty.
func (q *Queue[T]) Head() *T { return &q.buf[q.head] }

// Pop removes the oldest element; the queue must not be empty.
func (q *Queue[T]) Pop() {
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
