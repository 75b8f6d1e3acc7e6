# Image for one oracle-cluster process (node or supervisor).
# The runtime needs numpy and nothing else: scipy is imported only by the
# Fig. 4/5 distribution fits (repro.distributions.fit_distributions), which no
# node, supervisor or gateway runs.  tests/test_import_graph.py keeps it so.
FROM python:3.11-slim

RUN pip install --no-cache-dir numpy

WORKDIR /app
COPY src/ src/
COPY scripts/ scripts/

ENV PYTHONPATH=/app/src \
    PYTHONUNBUFFERED=1

ENTRYPOINT ["python", "-m", "repro"]
CMD ["--help"]
