package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/join"
	"repro/internal/service"
)

// The pair-list encoder. Every pair list the server writes — a query's
// skyline, a watch event's added and removed pairs — goes through
// appendPairs, which writes exactly what encoding/json writes for the
// []PairJSON form, without reflection and without building that form.

// appendPairs appends sky as a JSON array of PairJSON objects, byte for
// byte what encoding/json writes for the []PairJSON form. A vector is its
// left row's l1 local values, its right row's l2 local values and its
// aggregated values (join.Split's layout); a row's local values are
// formatted at its first vector and copied for every later one, since a
// large answer has a few hundred distinct rows per side under thousands of
// vectors. Like join.Split it takes one id to mean one row, which holds
// within one answer and within one watch delta.
func appendPairs(dst []byte, sky []join.Pair, l1, l2 int) []byte {
	lefts, rights := make(map[int]span), make(map[int]span)
	dst = append(dst, '[')
	for n, p := range sky {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"left":`...)
		dst = strconv.AppendInt(dst, int64(p.Left), 10)
		dst = append(dst, `,"right":`...)
		dst = strconv.AppendInt(dst, int64(p.Right), 10)
		dst = append(dst, `,"attrs":[`...)
		dst = appendRow(dst, lefts, p.Left, p.Attrs[:l1])
		dst = appendRow(dst, rights, p.Right, p.Attrs[l1:l1+l2])
		dst = appendValues(dst, p.Attrs[l1+l2:])
		if len(p.Attrs) > 0 {
			dst = dst[:len(dst)-1] // the last value's comma
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, ']')
}

// span locates a row's formatted values in the output being built.
type span struct{ from, to int }

// appendRow appends a row's values as appendValues does, formatting them
// only at the row's first appearance in rows.
func appendRow(dst []byte, rows map[int]span, id int, vals []float64) []byte {
	if len(vals) == 0 {
		return dst
	}
	if s, ok := rows[id]; ok {
		return append(dst, dst[s.from:s.to]...)
	}
	from := len(dst)
	dst = appendValues(dst, vals)
	rows[id] = span{from, len(dst)}
	return dst
}

// appendValues appends each value followed by a comma.
func appendValues(dst []byte, vals []float64) []byte {
	for _, f := range vals {
		dst = append(appendFloat(dst, f), ',')
	}
	return dst
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21, with
// a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// skylineKey opens every skyline reply; the bench client and the layout
// test rely on the array following it and on `],"count":` closing it.
var skylineKey = []byte(`{"skyline":`)

// replyBufs recycles the buffers computed replies are encoded into: such a
// reply is written once and dropped, and a large answer is a megabyte.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeQueryReply writes a 200 reply carrying resp's skyline, with out's
// fields after it — byte for byte what encoding/json writes for out with
// the skyline in place. A hit writes the encoding its snapshot keeps,
// filling it on the snapshot's first hit; a computed answer is encoded
// into a recycled buffer and leaves its snapshot unfilled, so only answers
// that are hit hold their bytes.
func writeQueryReply(w http.ResponseWriter, resp *service.QueryResponse, out *QueryResponseJSON) {
	l1, l2 := resp.Locals[0], resp.Locals[1]
	if resp.Snapshot != nil {
		writeSkyline(w, resp.Snapshot.Encoded(func(sky []join.Pair) []byte {
			return appendPairs(nil, sky, l1, l2)
		}), out)
		return
	}
	buf := replyBufs.Get().(*[]byte)
	*buf = appendPairs((*buf)[:0], resp.Skyline, l1, l2)
	writeSkyline(w, *buf, out)
	replyBufs.Put(buf)
}

// writeSkyline writes skyline, an encoded pair array, as the reply's
// "skyline" field, then out's fields (out.Skyline is nil, so encoding/json
// leaves it out) and the newline json.Encoder ends a value with.
// Content-Length is set, so the body goes out unchunked and skyline is
// written as it is, not copied.
func writeSkyline(w http.ResponseWriter, skyline []byte, out *QueryResponseJSON) {
	tail, err := json.Marshal(out)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	tail[0] = ',' // out's own opening brace is skylineKey's
	tail = append(tail, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(skylineKey)+len(skyline)+len(tail)))
	w.WriteHeader(http.StatusOK)
	// A failed write is a client that went away: nobody is left to tell.
	_, _ = w.Write(skylineKey)
	_, _ = w.Write(skyline)
	_, _ = w.Write(tail)
}

// appendEvent appends one line of the /v1/watch NDJSON stream: the
// event's seq, its added and removed pairs (each left out when empty) and
// its versions, as {"seq","added","removed","versions"} followed by a
// newline. The pairs are formatted whole (no local split): a delta is
// small, and the full answer goes out once per subscription.
func appendEvent(dst []byte, ev service.WatchEvent) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	if len(ev.Added) > 0 {
		dst = appendPairs(append(dst, `,"added":`...), ev.Added, 0, 0)
	}
	if len(ev.Removed) > 0 {
		dst = appendPairs(append(dst, `,"removed":`...), ev.Removed, 0, 0)
	}
	dst = strconv.AppendUint(append(dst, `,"versions":[`...), ev.Versions[0], 10)
	dst = strconv.AppendUint(append(dst, ','), ev.Versions[1], 10)
	return append(dst, "]}\n"...)
}
