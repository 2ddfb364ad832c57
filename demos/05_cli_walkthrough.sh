#!/bin/sh
# Full command-line round trip in a scratch directory:
# generate -> train -> evaluate -> predict -> export.
#
# Run:  sh demos/05_cli_walkthrough.sh
set -e
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/run.cfg" <<'EOF'
# small desk-scale run
gen_levels = 4
gen_roots = 2
gen_branching = 3
gen_patients = 60
gen_visits = 2,4
gen_codes_per_visit = 2,4
gen_clusters = 6
gen_cluster_level = 3
gen_background_words = 6
gen_words_per_cluster = 2
gen_words_per_note = 1,1
gen_cluster_word_rate = 1.0

split_counts = 42,6,12
epochs = 8
batch_size = 16
code_dim = 4
patient_dim = 8
word_dim = 4
patient_layer_dims = 8
code_layer_dims = 16,16
gru_hidden = 16
learning_rate = 3e-3
k = 5,10
EOF

echo "== generate =="
cgl generate --config "$work/run.cfg" --seed 7 --out "$work/data"

echo "== train =="
cgl train --config "$work/run.cfg" --seed 7 \
    --ontology "$work/data/ontology.tsv" \
    --dataset "$work/data/dataset.jsonl" \
    --out "$work/run"

echo "== evaluate (test split) =="
cgl evaluate --checkpoint "$work/run/checkpoint" \
    --dataset "$work/data/dataset.jsonl" \
    --k 5,10 --out "$work/eval"

echo "== predict for a raw history =="
head -1 "$work/data/dataset.jsonl" \
    | python3 -c 'import json,sys; r=json.load(sys.stdin); print(json.dumps({"visits": r["visits"][:-1]}, indent=2))' \
    > "$work/history.json"
cgl predict --checkpoint "$work/run/checkpoint" \
    --history "$work/history.json" --top 5

echo "== export embeddings and attention =="
cgl export --checkpoint "$work/run/checkpoint" --what code-embeddings --out "$work/export"
cgl export --checkpoint "$work/run/checkpoint" --what attention \
    --history "$work/history.json" --out "$work/export"
head -3 "$work/export/code_embeddings.csv" | cut -c1-100
head -3 "$work/export/attention.csv"
echo "done."
