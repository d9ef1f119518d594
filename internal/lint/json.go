package lint

import "encoding/json"

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// MarshalFindings renders findings as a deterministic JSON array (the
// order is the canonical sort Run produced).
func MarshalFindings(findings []Finding) ([]byte, error) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Analyzer: f.Analyzer, Message: f.Message,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
