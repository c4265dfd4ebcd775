package main

// sut_test.go is to the tests what sut.go is to the benchmark: the one test
// file that names product symbols.

import (
	"context"

	"repro/internal/vdp"
)

// acceptAll is an admission surface that never calls the session: what a
// "benchmark win" by skipping verification would look like. per is the
// submissions one verdict covers: 1, or the rows of a sketch contribution.
type acceptAll struct{ per int }

// skipSession is a deployment.wrapAdmit that puts acceptAll in front of any
// board, answering in the shape the board's own admitter would.
func skipSession(adm admitter) admitter {
	if sa, ok := adm.(sketchAdmitter); ok {
		return acceptAll{per: sa.layout.Rows}
	}
	return acceptAll{per: 1}
}

func (acceptAll) Submit(context.Context, *vdp.ClientSubmission) error { return nil }
func (a acceptAll) SubmitBatch(_ context.Context, subs []*vdp.ClientSubmission) ([]vdp.BatchVerdict, error) {
	vs := make([]vdp.BatchVerdict, 0, len(subs)/a.per)
	for at := 0; at < len(subs); at += a.per {
		vs = append(vs, vdp.BatchVerdict{ID: subs[at].Public.ID, Accepted: true})
	}
	return vs, nil
}
