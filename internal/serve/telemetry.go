// The telemetry doors: POST /telemetry speaks JSON (the original wire
// form) or, switched by Content-Type, the binary frame format from
// internal/ingest; both apply to the same store and answer with a
// durable acknowledgement. This file holds the shared door accounting
// (batches, reports, rejected, and a sampled allocations-per-report
// estimate per door, so the JSON-vs-binary gap is measured in
// production, not guessed from benchmarks) plus the two door handlers.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/ingest"
	"repro/internal/wal"
)

// Door indexes into Server.doors.
const (
	doorJSON = iota
	doorBinary
	numDoors
)

// doorNames spells the door label on /metrics and /admin/ingest.
var doorNames = [numDoors]string{"json", "binary"}

// allocSampleEvery: one batch in this many pays two runtime/metrics
// reads (a few microseconds) to estimate the door's decode+apply
// allocation cost. Concurrent batches on other goroutines can inflate
// a sample, so the estimate is an upper bound under load.
const allocSampleEvery = 64

// doorStats counts one ingest door's traffic. All fields are atomics;
// the struct is updated on the hot path without locks.
type doorStats struct {
	batches  atomic.Uint64
	reports  atomic.Uint64 // accepted + rejected
	rejected atomic.Uint64

	sampledBatches atomic.Uint64
	sampledReports atomic.Uint64
	sampledAllocs  atomic.Uint64
}

// begin opens one batch observation: it bumps the batch counter and,
// on sampled batches, snapshots the heap allocation counter.
func (d *doorStats) begin() (sampled bool, allocs0 uint64) {
	if d.batches.Add(1)%allocSampleEvery == 1 {
		return true, heapAllocObjects()
	}
	return false, 0
}

// finish records one batch's outcome; on sampled batches it closes the
// allocation window begin opened.
func (d *doorStats) finish(res ingest.BatchResult, sampled bool, allocs0 uint64) {
	n := uint64(res.Accepted + res.Rejected)
	d.reports.Add(n)
	d.rejected.Add(uint64(res.Rejected))
	if sampled {
		d.sampledBatches.Add(1)
		d.sampledReports.Add(n)
		d.sampledAllocs.Add(heapAllocObjects() - allocs0)
	}
}

// allocsPerReport is the sampled decode+apply allocation estimate; -1
// until the first sampled batch with at least one report lands.
func (d *doorStats) allocsPerReport() float64 {
	r := d.sampledReports.Load()
	if r == 0 {
		return -1
	}
	return float64(d.sampledAllocs.Load()) / float64(r)
}

// heapAllocObjects reads the cumulative heap-allocated object count —
// cheap (no stop-the-world), unlike runtime.ReadMemStats.
func heapAllocObjects() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// DoorStatsJSON is one door's slice of GET /admin/ingest.
type DoorStatsJSON struct {
	Door     string `json:"door"`
	Batches  uint64 `json:"batches"`
	Reports  uint64 `json:"reports"`
	Rejected uint64 `json:"rejected"`
	// AllocsPerReport estimates heap allocations per report on this
	// door's decode+apply path, sampled every allocSampleEvery batches
	// (-1 before the first sample).
	AllocsPerReport float64 `json:"allocs_per_report"`
}

// doorStatsJSON snapshots every door, in doorNames order.
func (s *Server) doorStatsJSON() []DoorStatsJSON {
	out := make([]DoorStatsJSON, numDoors)
	for i := range s.doors {
		d := &s.doors[i]
		out[i] = DoorStatsJSON{
			Door:            doorNames[i],
			Batches:         d.batches.Load(),
			Reports:         d.reports.Load(),
			Rejected:        d.rejected.Load(),
			AllocsPerReport: d.allocsPerReport(),
		}
	}
	return out
}

// isBinaryTelemetry reports whether the request selected the binary
// frame format (exactly, or with media-type parameters appended).
func isBinaryTelemetry(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == ingest.ContentTypeBinary || strings.HasPrefix(ct, ingest.ContentTypeBinary+";")
}

// handleTelemetry ingests one batch of per-vehicle daily-usage
// reports, JSON or binary by Content-Type. Validation is per report: a
// malformed body (JSON syntax, frame or wire-structure error) is
// rejected wholesale with 400, but individually invalid reports only
// mark their own vehicle's slice of the accept/reject response — one
// bad sensor must not discard a whole fleet upload. Re-delivering a
// batch is harmless (idempotent upserts).
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if !s.telemetry.admit(w, r) {
		return
	}
	if isBinaryTelemetry(r) {
		s.handleTelemetryBinary(w, r)
		return
	}
	s.handleTelemetryJSON(w, r)
}

// telemetryScratch pools the JSON door's per-batch buffers: the body
// bytes and the decoded store batch. Pooling these cuts the door's
// allocations to the vehicle-ID strings JSON inherently costs.
type telemetryScratch struct {
	body    bytes.Buffer
	reports []ingest.Report
}

var telemetryScratchPool = sync.Pool{New: func() any { return new(telemetryScratch) }}

// Scratch buffers beyond these caps are dropped instead of pooled, so
// one huge batch does not pin its buffers for the process lifetime.
const (
	poolBodyCap    = 1 << 20
	poolReportsCap = 1 << 16
)

func (sc *telemetryScratch) release() {
	if sc.body.Cap() > poolBodyCap || cap(sc.reports) > poolReportsCap {
		return
	}
	telemetryScratchPool.Put(sc)
}

func (s *Server) handleTelemetryJSON(w http.ResponseWriter, r *http.Request) {
	d := &s.doors[doorJSON]
	sampled, allocs0 := d.begin()

	r.Body = http.MaxBytesReader(w, r.Body, maxTelemetryBody)
	sc := telemetryScratchPool.Get().(*telemetryScratch)
	defer sc.release()
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("serve: telemetry batch exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: reading telemetry batch: %v", err))
		return
	}
	var err error
	sc.reports, err = decodeTelemetryJSON(sc.reports[:0], sc.body.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: decoding telemetry batch: %v", err))
		return
	}
	if len(sc.reports) > maxTelemetryReports {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("serve: batch of %d reports exceeds the %d-report limit", len(sc.reports), maxTelemetryReports))
		return
	}
	res, err := s.ingest.UpsertBatch(sc.reports)
	d.finish(res, sampled, allocs0)
	if err != nil {
		// The batch may be applied in memory but is not durably
		// journaled: do not acknowledge it. Idempotent upserts make the
		// client's retry safe.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out := TelemetryResponse{BatchResult: res}
	// Check the dirty threshold even when *this* batch changed nothing:
	// after a failed build the check rolls its baseline back, so the
	// next batch of any kind retries the build.
	out.RetrainStarted = s.maybeKickRetrain(r.Context())
	writeJSON(w, http.StatusOK, out)
}

// frameScratchPool holds body buffers for the binary door; the frame
// is parsed in place, so one pooled buffer is the door's only per-batch
// byte allocation.
var frameScratchPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// handleTelemetryBinary ingests one wal-framed binary wire batch (see
// internal/ingest's wire format). The ack is the same TelemetryResponse
// the JSON door sends, except the per-vehicle breakdown is included
// only when something was rejected — at line rate an all-accepted ack
// carries totals, not a map re-listing every vehicle.
func (s *Server) handleTelemetryBinary(w http.ResponseWriter, r *http.Request) {
	d := &s.doors[doorBinary]
	sampled, allocs0 := d.begin()

	r.Body = http.MaxBytesReader(w, r.Body, maxTelemetryBody)
	buf := frameScratchPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= poolBodyCap {
			frameScratchPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("serve: telemetry batch exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: reading telemetry batch: %v", err))
		return
	}
	body := buf.Bytes()
	payload, n, err := wal.ParseFrame(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: parsing telemetry frame: %v", err))
		return
	}
	if n != len(body) {
		writeError(w, http.StatusBadRequest, "serve: trailing bytes after telemetry frame")
		return
	}
	res, err := s.ingest.UpsertBinary(payload, maxTelemetryReports)
	d.finish(res, sampled, allocs0)
	if err != nil {
		switch {
		case errors.Is(err, ingest.ErrBatchTooLarge):
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		case errors.Is(err, ingest.ErrWireTruncated), errors.Is(err, ingest.ErrWireTrailing), errors.Is(err, ingest.ErrWireVersion):
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			// Journaling failed after application: same non-ack contract
			// as the JSON door.
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	out := TelemetryResponse{BatchResult: res}
	if res.Rejected == 0 {
		out.Vehicles = nil
	}
	out.RetrainStarted = s.maybeKickRetrain(r.Context())
	writeJSON(w, http.StatusOK, out)
}

// The JSON door's decoder. decodeTelemetryJSON parses a POST /telemetry
// body once, straight into store reports. It accepts exactly the bodies
// a fresh json.Unmarshal into TelemetryRequest accepts and yields the
// reports that decode would convert to: the same syntax rules and
// nesting limit, the same case-folded key match, null leaving a field
// as it is, a repeated "reports" array decoding into the elements an
// earlier one in the same body left behind, and a date that
// time.Parse("2006-01-02") refuses left zero so the store rejects the
// report as missing its date. Strings without escapes or non-ASCII
// bytes are read in place; any other string token is unquoted by
// encoding/json itself, which keeps its U+FFFD and surrogate rules.
// The test oracle (telemetryjson_test.go) and FuzzTelemetryJSON pin the
// equivalence.

// jsonMaxDepth is encoding/json's nesting limit: its scanner refuses a
// body that opens more than this many arrays and objects at once.
const jsonMaxDepth = 10000

// The member names of TelemetryRequest and ReportJSON.
var (
	keyReports = []byte("reports")
	keyVehicle = []byte("vehicle")
	keyDate    = []byte("date")
	keySeconds = []byte("seconds")
)

var errJSONEnd = errors.New("unexpected end of JSON input")

// telemetryDecoder is one body's parse state.
type telemetryDecoder struct {
	data []byte
	off  int
	// The last vehicle ID decoded and its raw token bytes: a batch lists
	// a vehicle's days one after another, so consecutive equal IDs share
	// one string. The string is always a copy, never the pooled body.
	lastRaw []byte
	lastID  string
}

// decodeTelemetryJSON appends the body's reports to dst. On error it
// returns dst truncated to its original length (its capacity may have
// grown) and the batch must be refused as a whole.
func decodeTelemetryJSON(dst []ingest.Report, body []byte) ([]ingest.Report, error) {
	d := telemetryDecoder{data: body}
	base := len(dst)
	n := 0 // the length of the decoded Reports slice
	var err error
	d.skipSpace()
	switch d.peek() {
	case '{':
		dst, n, err = d.request(dst, base)
	case 'n':
		err = d.literal("null")
	default:
		err = d.unexpected("a request object")
	}
	if err == nil {
		d.skipSpace()
		if d.off < len(d.data) {
			err = d.unexpected("end of input after the top-level value")
		}
	}
	if err != nil {
		return dst[:base], err
	}
	return dst[:base+n], nil
}

// request decodes the top-level object. dst[base:] holds every element
// any "reports" array in this body has written: a later array decodes
// into those elements again (encoding/json reuses the slice within one
// call), while an empty array or null discards them.
func (d *telemetryDecoder) request(dst []ingest.Report, base int) ([]ingest.Report, int, error) {
	n := 0
	d.off++
	for first := true; ; first = false {
		key, done, err := d.objectKey(first)
		if err != nil || done {
			return dst, n, err
		}
		if !bytes.EqualFold(key, keyReports) {
			if err := d.skipValue(1); err != nil {
				return dst, n, err
			}
			continue
		}
		switch d.peek() {
		case '[':
			dst, n, err = d.reports(dst, base)
		case 'n':
			dst, n, err = dst[:base], 0, d.literal("null")
		default:
			err = d.unexpected(`an array or null for "reports"`)
		}
		if err != nil {
			return dst, n, err
		}
	}
}

// reports decodes one "reports" array and returns its length.
func (d *telemetryDecoder) reports(dst []ingest.Report, base int) ([]ingest.Report, int, error) {
	d.off++
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		return dst[:base], 0, nil
	}
	for i := 0; ; i++ {
		if base+i == len(dst) {
			dst = append(dst, ingest.Report{})
		}
		var err error
		switch d.peek() {
		case '{':
			err = d.report(&dst[base+i])
		case 'n':
			err = d.literal("null")
		default:
			err = d.unexpected("a report object or null")
		}
		if err != nil {
			return dst, 0, err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case ']':
			d.off++
			return dst, i + 1, nil
		default:
			return dst, 0, d.unexpected("',' or ']' after an array element")
		}
	}
}

// report decodes one report object into r, which holds what this body
// last wrote to the same element (or zero).
func (d *telemetryDecoder) report(r *ingest.Report) error {
	d.off++
	for first := true; ; first = false {
		key, done, err := d.objectKey(first)
		if err != nil || done {
			return err
		}
		c := d.peek()
		switch {
		case bytes.EqualFold(key, keyVehicle):
			switch c {
			case '"':
				r.VehicleID, err = d.vehicleID()
			case 'n':
				err = d.literal("null")
			default:
				err = d.unexpected(`a string or null for "vehicle"`)
			}
		case bytes.EqualFold(key, keyDate):
			switch c {
			case '"':
				var raw []byte
				if raw, err = d.stringBytes(); err == nil {
					r.Date = parseDay(raw)
				}
			case 'n':
				err = d.literal("null")
			default:
				err = d.unexpected(`a string or null for "date"`)
			}
		case bytes.EqualFold(key, keySeconds):
			switch {
			case c == '-' || isDigit(c):
				r.Seconds, err = d.number()
			case c == 'n':
				err = d.literal("null")
			default:
				err = d.unexpected(`a number or null for "seconds"`)
			}
		default:
			err = d.skipValue(3)
		}
		if err != nil {
			return err
		}
	}
}

// vehicleID decodes the string token at d.off, sharing the previous
// ID's string when the raw bytes repeat.
func (d *telemetryDecoder) vehicleID() (string, error) {
	start := d.off
	raw, plain, err := d.str()
	if err != nil {
		return "", err
	}
	if bytes.Equal(raw, d.lastRaw) {
		return d.lastID, nil
	}
	var id string
	if plain {
		id = string(raw)
	} else if id, err = unquoteJSON(d.data[start:d.off]); err != nil {
		return "", err
	}
	d.lastRaw, d.lastID = raw, id
	return id, nil
}

// stringBytes decodes the string token at d.off; a plain token's bytes
// alias the body.
func (d *telemetryDecoder) stringBytes() ([]byte, error) {
	start := d.off
	raw, plain, err := d.str()
	if err != nil || plain {
		return raw, err
	}
	s, err := unquoteJSON(d.data[start:d.off])
	return []byte(s), err
}

// unquoteJSON decodes one validated string token (quotes included) the
// way encoding/json decodes it into a string field.
func unquoteJSON(tok []byte) (string, error) {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return "", fmt.Errorf("unquoting string: %w", err)
	}
	return s, nil
}

// objectKey reads the next member key of an object whose '{' (first)
// or previous member value has just been consumed, then the colon and
// the whitespace after it. done reports the closing brace instead.
func (d *telemetryDecoder) objectKey(first bool) (key []byte, done bool, err error) {
	d.skipSpace()
	switch c := d.peek(); {
	case c == '}' && first:
		d.off++
		return nil, true, nil
	case first:
	case c == ',':
		d.off++
		d.skipSpace()
	case c == '}':
		d.off++
		return nil, true, nil
	default:
		return nil, false, d.unexpected("',' or '}' after an object member")
	}
	if d.peek() != '"' {
		return nil, false, d.unexpected("an object key string")
	}
	if key, err = d.stringBytes(); err != nil {
		return nil, false, err
	}
	d.skipSpace()
	if d.peek() != ':' {
		return nil, false, d.unexpected("':' after an object key")
	}
	d.off++
	d.skipSpace()
	return key, false, nil
}

// str scans the string token at d.off and returns the bytes between its
// quotes. plain reports a token without escapes or bytes >= 0x80, whose
// raw bytes are its value.
func (d *telemetryDecoder) str() (raw []byte, plain bool, err error) {
	start := d.off + 1
	plain = true
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case plainStringByte[c]:
			i++
		case c == '"':
			d.off = i + 1
			return d.data[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			switch {
			case i == len(d.data):
			case strings.IndexByte(`"\/bfnrt`, d.data[i]) >= 0:
				i++
			case d.data[i] == 'u':
				for k := 0; k < 4; k++ {
					if i++; i < len(d.data) && !isHex(d.data[i]) {
						d.off = i
						return nil, false, d.unexpected(`a hexadecimal digit in a \u escape`)
					}
				}
				i++
			default:
				d.off = i
				return nil, false, d.unexpected("a string escape code")
			}
		case c < 0x20:
			d.off = i
			return nil, false, d.unexpected("a string character")
		default: // a byte >= 0x80
			plain = false
			i++
		}
	}
	d.off = len(d.data)
	return nil, false, errJSONEnd
}

// plainStringByte marks the bytes a string holds as themselves: ASCII
// from the space up, except the quote and the backslash.
var plainStringByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// number scans a JSON number token at d.off and parses it as a float64;
// a value out of float64 range is an error, as in encoding/json.
func (d *telemetryDecoder) number() (float64, error) {
	start := d.off
	if err := d.skipNumber(); err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(d.data[start:d.off]), 64)
	if err != nil {
		return 0, fmt.Errorf("number at offset %d does not fit a float64", start)
	}
	return f, nil
}

// skipNumber scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *telemetryDecoder) skipNumber() error {
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.unexpected("a digit in a number")
	}
	if d.peek() == '.' {
		d.off++
		if !isDigit(d.peek()) {
			return d.unexpected("a digit after the decimal point")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !isDigit(d.peek()) {
			return d.unexpected("a digit in the exponent")
		}
		d.digits()
	}
	return nil
}

func (d *telemetryDecoder) digits() {
	for d.off < len(d.data) && isDigit(d.data[d.off]) {
		d.off++
	}
}

// skipValue validates and skips the value at d.off, which sits inside
// depth open containers.
func (d *telemetryDecoder) skipValue(depth int) error {
	switch c := d.peek(); {
	case c == '{', c == '[':
		if depth >= jsonMaxDepth {
			return fmt.Errorf("exceeded max depth at offset %d", d.off)
		}
		d.off++
		if c == '{' {
			for first := true; ; first = false {
				_, done, err := d.objectKey(first)
				if err != nil || done {
					return err
				}
				if err := d.skipValue(depth + 1); err != nil {
					return err
				}
			}
		}
		d.skipSpace()
		if d.peek() == ']' {
			d.off++
			return nil
		}
		for {
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			d.skipSpace()
			switch d.peek() {
			case ',':
				d.off++
				d.skipSpace()
			case ']':
				d.off++
				return nil
			default:
				return d.unexpected("',' or ']' after an array element")
			}
		}
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '-' || isDigit(c):
		return d.skipNumber()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.unexpected("a value")
}

// literal consumes the keyword lit at d.off.
func (d *telemetryDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.unexpected("literal " + lit)
		}
		d.off++
	}
	return nil
}

func (d *telemetryDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at d.off, or 0 (never valid JSON) at the end.
func (d *telemetryDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *telemetryDecoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return errJSONEnd
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.data[d.off], d.off, want)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// daysBefore[m] counts the days before month m+1 in a common year.
var daysBefore = [...]int{0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365}

// parseDay is time.Parse("2006-01-02", s) for the JSON door without the
// layout interpreter: exactly four year digits, two month digits and
// two day digits, a month of 1–12 and a day that month has (leap days
// by the Gregorian rule), in UTC. Whatever time.Parse refuses yields
// the zero Time.
func parseDay(b []byte) time.Time {
	if len(b) != 10 || b[4] != '-' || b[7] != '-' {
		return time.Time{}
	}
	for _, i := range [...]int{0, 1, 2, 3, 5, 6, 8, 9} {
		if !isDigit(b[i]) {
			return time.Time{}
		}
	}
	num := func(i, j int) int {
		n := 0
		for _, c := range b[i:j] {
			n = n*10 + int(c-'0')
		}
		return n
	}
	year, month, day := num(0, 4), num(5, 7), num(8, 10)
	if month < 1 || month > 12 || day < 1 {
		return time.Time{}
	}
	days := daysBefore[month] - daysBefore[month-1]
	if month == 2 && year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		days++
	}
	if day > days {
		return time.Time{}
	}
	return time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
}

// appendReportJSON appends r in the JSON door's wire form such that
// decodeTelemetryJSON yields r back: a zero Date is written as "" (a
// shard then refuses it as missing, as this door would), the seconds as
// the shortest decimal that parses back to the same bits. The router's
// partitioned path re-encodes each owner's sub-batch with it.
func appendReportJSON(b []byte, r ingest.Report) []byte {
	b = append(b, `{"vehicle":"`...)
	for i := 0; i < len(r.VehicleID); i++ {
		switch c := r.VehicleID[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, `\u00`...)
			b = append(b, "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		default:
			b = append(b, c)
		}
	}
	b = append(b, `","date":"`...)
	if !r.Date.IsZero() {
		b = r.Date.AppendFormat(b, "2006-01-02")
	}
	b = append(b, `","seconds":`...)
	b = strconv.AppendFloat(b, r.Seconds, 'g', -1, 64)
	return append(b, '}')
}
