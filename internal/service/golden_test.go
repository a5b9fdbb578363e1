package service

import (
	"fmt"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/grid"
)

// goldenSpecs cover one spec per algorithm, one refereed spec and one
// whose capacity is infeasible (16 items cannot fit 4 processors one
// each), over the fixed lu/4 trace on a 2x2 array.
var goldenSpecs = []BatchSpec{
	{Algorithm: "gomcds"},
	{Algorithm: "lomcds", Capacity: 8},
	{Algorithm: "scds"},
	{Algorithm: "gomcds", Capacity: 6, Verify: true},
	{Algorithm: "gomcds", Capacity: 1},
}

// goldenRejects are specs /schedule refuses before any work; each also
// rejects a whole batch it rides in.
var goldenRejects = []BatchSpec{
	{Algorithm: "nope"},
	{Algorithm: "scds", Capacity: -1},
}

var elapsedField = regexp.MustCompile(`"elapsed_us": [0-9]+`)

// TestScheduleResponseGolden pins the wire layout of /schedule and
// /schedule/batch: status lines and body bytes, with elapsed_us zeroed,
// must match testdata/schedule_golden.txt exactly. Each spec goes to
// /schedule on its own (the first builds the table, later ones hit),
// then all of them ride one /schedule/batch call; last come the
// validation errors of both endpoints.
func TestScheduleResponseGolden(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	text := traceText(t, "lu", 4, grid.Square(2))

	var got strings.Builder
	record := func(label string, status int, body []byte) {
		fmt.Fprintf(&got, "== %s -> %d\n%s", label, status, elapsedField.ReplaceAll(body, []byte(`"elapsed_us": 0`)))
	}
	for _, spec := range goldenSpecs {
		req := Request{Trace: text, Algorithm: spec.Algorithm, Capacity: spec.Capacity, Verify: spec.Verify}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/schedule", req)
		record(fmt.Sprintf("POST /schedule %+v", spec), resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/schedule/batch", BatchRequest{Trace: text, Requests: goldenSpecs})
	record("POST /schedule/batch", resp.StatusCode, body)
	for _, spec := range goldenRejects {
		req := Request{Trace: text, Algorithm: spec.Algorithm, Capacity: spec.Capacity}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/schedule", req)
		record(fmt.Sprintf("POST /schedule %+v", spec), resp.StatusCode, body)
		resp, body = postJSON(t, ts.Client(), ts.URL+"/schedule/batch", BatchRequest{Trace: text, Requests: []BatchSpec{goldenSpecs[0], spec}})
		record(fmt.Sprintf("POST /schedule/batch [gomcds %+v]", spec), resp.StatusCode, body)
	}

	want, err := os.ReadFile("testdata/schedule_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("responses diverged from testdata/schedule_golden.txt:\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}
