package main

import (
	"slices"
	"strings"
	"testing"
)

// TestSelectExperiments pins the -only contract: an empty value runs every
// paper experiment, known names run in table order, and any unknown name —
// a typo, or a system sweep that now lives in bench/ — is refused with the
// valid list instead of silently running nothing.
func TestSelectExperiments(t *testing.T) {
	const valid = "table1,figure3,figure4,table2,micro,dperror"
	cases := []struct {
		name string
		only string
		want []string // nil: the value must be refused
	}{
		{"empty", "", strings.Split(valid, ",")},
		{"subset", "table1,micro", []string{"table1", "micro"}},
		{"reordered-mixed-case", "micro, TABLE1", []string{"table1", "micro"}},
		{"typo", "flod", nil},
		{"retired-sweep", "flood", nil},
		{"one-unknown-among-known", "table1,parallel", nil},
		{"trailing-comma", "table1,", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectExperiments(tc.only)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("-only %q accepted", tc.only)
				}
				if !strings.Contains(err.Error(), valid) {
					t.Fatalf("-only %q refused without the valid list: %v", tc.only, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("-only %q refused: %v", tc.only, err)
			}
			var names []string
			for _, e := range got {
				names = append(names, e.name)
			}
			if !slices.Equal(names, tc.want) {
				t.Fatalf("-only %q selected %v, want %v", tc.only, names, tc.want)
			}
		})
	}
}
