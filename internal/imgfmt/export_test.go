package imgfmt

import "bytes"

// ListingSizes returns, for every directory of the stream s has taken, the
// size of its listing as Close computes it and as writeListing renders it.
func ListingSizes(s *SquashfsSink) (computed, rendered []int64, err error) {
	dirCount := s.ts.Tree().Len()
	layout, order := s.layoutInodes(dirCount), s.orderChildren()
	var buf bytes.Buffer
	for d := 0; d < dirCount; d++ {
		buf.Reset()
		if err := s.writeListing(d, order, layout, &buf); err != nil {
			return nil, nil, err
		}
		computed = append(computed, s.listingSize(d, order, layout))
		rendered = append(rendered, int64(buf.Len()))
	}
	return computed, rendered, nil
}
