package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// The two HTTP telemetry doors, selected by Content-Type.
const (
	doorJSON   = "json"
	doorBinary = "binary"

	contentTypeJSON   = "application/json"
	contentTypeBinary = "application/x-fleet-telemetry"
)

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
			DisableCompression:  true,
		},
	}
}

// drain consumes and closes a response body so the connection is
// reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // a short read only costs the keep-alive
	resp.Body.Close()
}

// encodeJSONBatch renders the POST /telemetry JSON body.
func encodeJSONBatch(dst []byte, reports []report) []byte {
	dst = append(dst, `{"reports":[`...)
	for i, r := range reports {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"vehicle":`...)
		dst = strconv.AppendQuote(dst, r.vehicle)
		dst = append(dst, `,"date":"`...)
		dst = r.day.AppendFormat(dst, dayLayout)
		dst = append(dst, `","seconds":`...)
		dst = strconv.AppendFloat(dst, r.seconds(), 'f', 1, 64)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// encodeBinaryFrame renders the documented binary telemetry frame
// (ARCHITECTURE.md, "Ingest wire protocols"), all integers
// little-endian:
//
//	frame    uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//	payload  version byte (1) | uint32 group count | groups
//	group    uint16 id length | id | uint32 report count | reports
//	report   int64 epoch day | float64 seconds bits
//
// Consecutive reports of one vehicle share a group. The driver encodes
// the frame itself, rather than importing the server's encoder, so it
// keeps measuring the wire format and not one implementation of it.
func encodeBinaryFrame(dst []byte, reports []report) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC, filled in below
	start := len(dst)
	dst = append(dst, 1, 0, 0, 0, 0)
	groups, countAt := uint32(0), 0
	for i, r := range reports {
		if i == 0 || r.vehicle != reports[i-1].vehicle {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.vehicle)))
			dst = append(dst, r.vehicle...)
			countAt = len(dst)
			dst = append(dst, 0, 0, 0, 0)
			groups++
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(epochDay(r.day)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.seconds()))
		binary.LittleEndian.PutUint32(dst[countAt:], binary.LittleEndian.Uint32(dst[countAt:])+1)
	}
	binary.LittleEndian.PutUint32(dst[start+1:], groups)
	payload := dst[start:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// telemetryAck is the part of the POST /telemetry response the driver
// checks.
type telemetryAck struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// postReports sends one batch through a door. A batch counts as
// acknowledged only on 200 with every report accepted.
func postReports(c *http.Client, base, door string, buf *[]byte, reports []report) error {
	ctype := contentTypeJSON
	if door == doorBinary {
		*buf = encodeBinaryFrame((*buf)[:0], reports)
		ctype = contentTypeBinary
	} else {
		*buf = encodeJSONBatch((*buf)[:0], reports)
	}
	resp, err := c.Post(base+"/telemetry", ctype, bytes.NewReader(*buf))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /telemetry: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var ack telemetryAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("POST /telemetry: decoding ack: %w", err)
	}
	if ack.Accepted != len(reports) || ack.Rejected != 0 {
		return fmt.Errorf("POST /telemetry: accepted %d rejected %d of %d reports", ack.Accepted, ack.Rejected, len(reports))
	}
	return nil
}

// getResult is what the driver keeps of one GET.
type getResult struct {
	status     int
	etag       string
	generation string
	body       []byte
}

// get performs one GET, conditional when etag is set.
func get(c *http.Client, url, etag string) (getResult, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return getResult{}, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return getResult{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return getResult{}, err
	}
	return getResult{
		status:     resp.StatusCode,
		etag:       resp.Header.Get("ETag"),
		generation: resp.Header.Get("X-Fleet-Generation"),
		body:       body,
	}, nil
}

// getJSON fetches url and decodes a 200 response into v.
func getJSON(c *http.Client, url string, v any) error {
	res, err := get(c, url, "")
	if err != nil {
		return err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, res.status, bytes.TrimSpace(res.body))
	}
	return json.Unmarshal(res.body, v)
}

// forecastBody is the part of GET /vehicles/{id}/forecast the driver
// reads.
type forecastBody struct {
	DaysLeft float64 `json:"days_left"`
	DueDate  string  `json:"due_date"`
}

// asOfDay returns the last day of telemetry a forecast was computed
// from. The API defines due_date as that day plus the rounded days
// left, so the forecast itself says which report it reflects. Comparing
// bodies would not: a semi-new or new vehicle is retrained whenever any
// old vehicle's report moves the donor pool, so its body can change
// without its own report being covered.
func asOfDay(body []byte) (int64, error) {
	var f forecastBody
	if err := json.Unmarshal(body, &f); err != nil {
		return 0, err
	}
	due, err := time.Parse(dayLayout, f.DueDate)
	if err != nil {
		return 0, err
	}
	return epochDay(due) - int64(math.Round(f.DaysLeft)), nil
}
