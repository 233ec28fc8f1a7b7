package mds

// appendSearchKey appends the key body of one search after the managed
// cache's generation stamp: a type byte ('b' GRIS body, 'g' GIIS merge),
// the filter text, and the NUL-separated attribute projection.
func appendSearchKey(b []byte, kind byte, req *SearchRequest) []byte {
	b = append(b, kind)
	b = append(b, req.Filter...)
	for _, a := range req.Attrs {
		b = append(b, 0)
		b = append(b, a...)
	}
	return b
}
