package logging

import (
	"fmt"
	"io"
	"sort"

	"infogram/internal/job"
)

// AccountSummary aggregates one identity's use of the service — the
// "simple Grid accounting" the paper builds on the logging service (§6).
type AccountSummary struct {
	Identity     string
	Owner        string
	JobsSubmit   int
	JobsDone     int
	JobsFailed   int
	JobsRestart  int // restart transitions observed
	InfoQueries  int
	KeywordsSeen map[string]int // per-keyword query counts
}

// Accounting summarizes a replayed log per identity, sorted by identity.
func Accounting(records []Record) []AccountSummary {
	byID := make(map[string]*AccountSummary)
	// Job contacts map to the submitting identity so state records can be
	// attributed.
	owner := make(map[string]string)
	// restarts is each contact's highest restart count so far. A restart
	// is counted when the count rises, not per PENDING line: a job resumed
	// by crash recovery logs its current PENDING line again.
	restarts := make(map[string]int)

	get := func(identity, local string) *AccountSummary {
		s, ok := byID[identity]
		if !ok {
			s = &AccountSummary{Identity: identity, Owner: local, KeywordsSeen: make(map[string]int)}
			byID[identity] = s
		}
		if s.Owner == "" {
			s.Owner = local
		}
		return s
	}

	for _, r := range records {
		switch r.Kind {
		case KindSubmit:
			s := get(r.Identity, r.Owner)
			s.JobsSubmit++
			owner[r.Contact] = r.Identity
		case KindState:
			id, ok := owner[r.Contact]
			if !ok {
				continue
			}
			s := get(id, r.Owner)
			st, err := job.ParseState(r.State)
			if err != nil {
				continue
			}
			switch st {
			case job.Done:
				s.JobsDone++
			case job.Failed:
				s.JobsFailed++
			}
			if r.Restarts > restarts[r.Contact] {
				s.JobsRestart += r.Restarts - restarts[r.Contact]
				restarts[r.Contact] = r.Restarts
			}
		case KindInfoQuery:
			s := get(r.Identity, r.Owner)
			s.InfoQueries++
			for _, kw := range r.Keywords {
				s.KeywordsSeen[kw]++
			}
		}
	}

	out := make([]AccountSummary, 0, len(byID))
	for _, s := range byID {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Identity < out[j].Identity })
	return out
}

// WriteReport renders accounting summaries as a text table.
func WriteReport(w io.Writer, summaries []AccountSummary) error {
	if _, err := fmt.Fprintf(w, "%-40s %-10s %6s %6s %6s %6s %6s\n",
		"IDENTITY", "LOCAL", "SUBMIT", "DONE", "FAIL", "RETRY", "INFO"); err != nil {
		return err
	}
	for _, s := range summaries {
		if _, err := fmt.Fprintf(w, "%-40s %-10s %6d %6d %6d %6d %6d\n",
			s.Identity, s.Owner, s.JobsSubmit, s.JobsDone, s.JobsFailed, s.JobsRestart, s.InfoQueries); err != nil {
			return err
		}
	}
	return nil
}
