package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		want  map[int]int64
	}{
		{
			name:  "leaf",
			spans: []Span{{ID: 1, Start: 10, End: 25}},
			want:  map[int]int64{1: 15},
		},
		{
			name: "children subtract their durations",
			spans: []Span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 10, End: 30},
				{ID: 3, Parent: 1, Start: 40, End: 90},
			},
			want: map[int]int64{1: 30, 2: 20, 3: 50},
		},
		{
			name: "an aggregate child subtracts its busy time, not its extent",
			spans: []Span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 5, End: 95, Count: 30, Busy: 45},
			},
			want: map[int]int64{1: 55, 2: 90},
		},
		{
			name: "grandchildren count against their own parent only",
			spans: []Span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 0, End: 60},
				{ID: 3, Parent: 2, Start: 10, End: 50},
			},
			want: map[int]int64{1: 40, 2: 20, 3: 40},
		},
	}
	for _, c := range cases {
		if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: selfTimes = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerBeginFinish(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("root", 0, "s")
	child := tr.Add(Span{Name: "child", Parent: root, Start: tr.Now(), End: tr.Now()})
	tr.Finish(root, tr.Now(), map[string]int64{"n": 3})
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].ID != root || spans[1].ID != child || spans[1].Parent != root {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[0].Counts["n"] != 3 {
		t.Errorf("root not closed after its child: %+v", spans[0])
	}
}
