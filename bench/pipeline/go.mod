module impressions/bench/pipeline

go 1.24

require impressions v0.0.0

replace impressions => ../..
