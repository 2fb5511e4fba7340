package row

// Arena copies rows into shared backing arrays, so a result of many
// rows costs a few allocations instead of one per row: each new array
// is twice the last, so n rows take O(log n) arrays. Each row is capped
// at its own width, so an append to one row cannot run into the next.
// The zero Arena is ready for use.
type Arena struct{ buf []Value }

// Copy returns a copy of r carved out of the arena. Its values are
// copied as values: strings and bytes payloads are shared with r.
func (a *Arena) Copy(r Row) Row {
	if cap(a.buf)-len(a.buf) < len(r) {
		a.buf = make([]Value, 0, max(2*cap(a.buf), len(r)))
	}
	n := len(a.buf)
	a.buf = append(a.buf, r...)
	return a.buf[n : n+len(r) : n+len(r)]
}
